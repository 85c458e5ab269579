"""The shared invariant rules of ``fresco.properties``: half-periodicity and
shift recovery hold over random scenes, and each rule reports failure on an
input that breaks it."""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fresco import properties, synth
from fresco.config import Config
from fresco.index import KeyframeIndex, make_key
from fresco.matching import circular_shift
from fresco.pipeline import describe
from fresco.pose import Se2Pose

CFG = Config()
_SCENES = st.builds(
    synth.SceneSpec,
    seed=st.integers(0, 2**32 - 1),
    pillars=st.integers(0, 40),
    walls=st.integers(0, 12),
    rings=st.integers(0, 3),
)


def _desc(spec: synth.SceneSpec) -> np.ndarray:
    desc = describe(synth.generate(spec), CFG)
    # a scene whose structure all falls outside its range has an all-zero
    # descriptor, which carries no shift and which the index rejects
    assume(desc.any())
    return desc


@settings(max_examples=25, deadline=None)
@given(_SCENES)
def test_descriptor_is_half_periodic(spec):
    assert properties.half_periodic(_desc(spec))


@settings(max_examples=25, deadline=None)
@given(_SCENES, st.integers(1, CFG.angular_bins // 2 - 1))
def test_every_shift_is_recovered_exactly(spec, k):
    assert properties.shift_recovered(_desc(spec), k)


def test_translation_check_rejects_a_spectrum_that_moves(monkeypatch):
    img = np.random.default_rng(3).uniform(0.0, 10.0, (16, 16))
    assert properties.translation_deviation(img, 3, 5) <= properties.TRANSLATION_RTOL
    # the real part of the transform carries the phase, which a roll changes
    monkeypatch.setattr(properties, "log_spectrum", lambda im: np.fft.fft2(im).real)
    assert properties.translation_deviation(img, 3, 5) > properties.TRANSLATION_RTOL


def test_half_period_check_rejects_other_arrays():
    tiled = np.tile(np.random.default_rng(0).uniform(0.1, 2.0, (8, 6)), 2)
    assert properties.half_periodic(tiled)
    tiled[3, 1] += 2.0 * properties.HALF_PERIOD_TOL
    assert not properties.half_periodic(tiled)
    assert not properties.half_periodic(np.random.default_rng(1).uniform(0.1, 2.0, (8, 12)))


def test_rotation_check_rejects_a_wrongly_rotated_descriptor():
    scene = synth.generate(synth.SceneSpec(seed=41, range_limit=30.0))
    desc = describe(scene, CFG)
    turned = describe(synth.perturb(scene, yaw_deg=40.0), CFG)
    assert properties.rotation_recovered(turned, desc, 40.0)
    assert properties.rotation_recovered(turned, desc, 220.0)  # modulo 180
    # two columns are 6 degrees, past the 3 degree tolerance
    assert not properties.rotation_recovered(circular_shift(turned, 2), desc, 40.0)
    assert not properties.rotation_recovered(turned, desc, 130.0)


def test_pose_check_rejects_an_estimate_off_by_a_metre():
    est = Se2Pose(tx=1.2, ty=-0.4, yaw=np.radians(-0.5))
    assert properties.pose_recovered(est, 1.2, -0.4, 359.5)  # yaw wraps
    assert not properties.pose_recovered(dataclasses.replace(est, tx=2.2), 1.2, -0.4, 359.5)
    assert not properties.pose_recovered(dataclasses.replace(est, ty=0.6), 1.2, -0.4, 359.5)
    assert not properties.pose_recovered(est, 1.2, -0.4, 357.0)


def test_pose_error_is_planar_norm_and_wrapped_yaw_in_degrees():
    est = Se2Pose(tx=1.0, ty=2.0, yaw=np.radians(179.0))
    rte, rre = properties.pose_error(est, 4.0, -2.0, np.radians(-179.0))
    assert rte == 5.0
    assert abs(rre - 2.0) < 1e-9


def _retrieved(descs, query, k):
    idx = KeyframeIndex(exclusion_horizon=0)
    for i, d in enumerate(descs):
        idx.insert(i, d)
    return [fid for fid, _ in idx.retrieve(query, k)]


def test_retrieval_oracle_rejects_a_wrong_list():
    descs = list(np.tile(np.random.default_rng(42).uniform(0.1, 2.0, (40, 8, 6)), 2))
    descs[29] = descs[7].copy()  # an exact tie, which goes to the smaller position
    want = properties.linear_scan([make_key(d) for d in descs], make_key(descs[7]), 5)
    assert want[:2] == [7, 29]
    assert _retrieved(descs, descs[7], 5) == want
    # the same frames under other ids
    assert _retrieved(descs[::-1], descs[7], 5) != want
