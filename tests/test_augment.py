import hashlib

import numpy as np
import pytest

from cocor.augment import (GEOMETRIC_FILL, POOL_SIZE, BasicTransform,
                           CompositeAugmentation, TransformId, apply_basic,
                           apply_composite, composition_vector, sample_composite)
from cocor.augment import _bilinear_plan
from cocor.numcore import make_rng


def random_raster(seed, h=8, w=8, c=3):
    return make_rng(seed, 50).uniform(0.0, 1.0, size=(h, w, c))


def quantized_raster(seed, h=8, w=8, c=3):
    img = random_raster(seed, h, w, c)
    return np.round(img * 255.0) / 255.0


ALL_IDS = list(TransformId)


def basic(t, img):
    """apply_basic on a batch of one raster."""
    return apply_basic(t, img[None])[0]


def composite(comp, img):
    """apply_composite on a batch of one raster."""
    return apply_composite([comp], img[None])[0]


def translate_shift(tid, h, w, mag, sign):
    """(rows, columns) a translation moves content by: 0.3 of the axis times
    the magnitude, rounded to whole pixels, in the direction of the sign."""
    if tid == TransformId.TRANSLATE_X:
        return 0, sign * round(0.3 * w * mag)
    return sign * round(0.3 * h * mag), 0


# both axes and signs, sizes 2-11 (rectangular), 1 and 3 channels
TRANSLATE_CASES = [(tid, (h, 13 - h, c), mag, sign)
                   for tid in (TransformId.TRANSLATE_X, TransformId.TRANSLATE_Y)
                   for h in range(2, 12) for c in (1, 3)
                   for mag in (0.0, 0.1, 0.5, 0.9, 1.0) for sign in (-1, 1)]


class TestBasicTransforms:
    def test_identity_is_bit_identical(self):
        img = random_raster(1)
        for mag in (0.0, 0.3, 1.0):
            out = basic(BasicTransform(TransformId.IDENTITY, mag), img)
            np.testing.assert_array_equal(out, img)

    def test_solarize_magnitude_zero_is_noop(self):
        img = random_raster(2)
        out = basic(BasicTransform(TransformId.SOLARIZE, 0.0), img)
        np.testing.assert_array_equal(out, img)

    def test_posterize_magnitude_zero_on_quantized_is_noop(self):
        img = quantized_raster(3)
        out = basic(BasicTransform(TransformId.POSTERIZE, 0.0), img)
        np.testing.assert_allclose(out, img, atol=1e-12)

    def test_translate_x_matches_index_permutation_oracle(self):
        # both axes: destination (y, x) reads source (y - dy, x - dx), else the fill
        for tid, (h, w, c), mag, sign in TRANSLATE_CASES:
            img = random_raster(int(tid) + 10 * h, h=h, w=w, c=c)
            dy, dx = translate_shift(tid, h, w, mag, sign)
            expected = np.full_like(img, GEOMETRIC_FILL)
            for y in range(h):
                for x in range(w):
                    if 0 <= y - dy < h and 0 <= x - dx < w:
                        expected[y, x] = img[y - dy, x - dx]
            out = basic(BasicTransform(tid, mag, sign), img)
            np.testing.assert_array_equal(out, expected,
                                          err_msg=f"{tid.name} {h}x{w}x{c} {mag} {sign}")

    def test_translate_y_negative_sign(self):
        # the same cases against slicing; a shift never empties the raster
        for tid, (h, w, c), mag, sign in TRANSLATE_CASES:
            img = random_raster(int(tid) + 10 * w, h=h, w=w, c=c)
            dy, dx = translate_shift(tid, h, w, mag, sign)
            assert abs(dy) < h and abs(dx) < w
            expected = np.full_like(img, GEOMETRIC_FILL)
            expected[max(dy, 0):h + min(dy, 0), max(dx, 0):w + min(dx, 0)] = \
                img[max(-dy, 0):h + min(-dy, 0), max(-dx, 0):w + min(-dx, 0)]
            out = basic(BasicTransform(tid, mag, sign), img)
            np.testing.assert_array_equal(out, expected,
                                          err_msg=f"{tid.name} {h}x{w}x{c} {mag} {sign}")

    def test_unsupported_channel_count_rejected(self):
        with pytest.raises(ValueError):
            basic(BasicTransform(TransformId.IDENTITY, 0.5),
                        np.zeros((4, 4, 2)))

    def test_magnitude_range_validated(self):
        with pytest.raises(ValueError):
            BasicTransform(TransformId.ROTATE, 1.5)
        with pytest.raises(ValueError):
            BasicTransform(TransformId.ROTATE, 0.5, sign=0)

    def test_autocontrast_rescales_to_full_range(self):
        img = random_raster(6) * 0.5 + 0.25
        out = basic(BasicTransform(TransformId.AUTOCONTRAST, 0.5), img)
        for c in range(3):
            assert abs(out[:, :, c].min()) < 1e-12
            assert abs(out[:, :, c].max() - 1.0) < 1e-12

    def test_autocontrast_noop_on_flat_channel(self):
        img = np.full((4, 4, 1), 0.3)
        out = basic(BasicTransform(TransformId.AUTOCONTRAST, 1.0), img)
        np.testing.assert_array_equal(out, img)

    def test_equalize_constant_image_is_noop(self):
        img = np.full((4, 4, 1), 0.7)
        out = basic(BasicTransform(TransformId.EQUALIZE, 0.5), img)
        np.testing.assert_allclose(out, img, atol=1e-12)

    def test_equalize_two_level_oracle(self):
        # 16 dark + 48 bright pixels: cdf maps dark -> 0 and bright -> 255
        img = np.full((8, 8, 1), 200 / 255.0)
        img[:2, :, 0] = 90 / 255.0
        out = basic(BasicTransform(TransformId.EQUALIZE, 0.5), img)
        np.testing.assert_allclose(out[:2, :, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(out[2:, :, 0], 1.0, atol=1e-12)

    def test_equalize_rejects_negative_pixels(self):
        img = np.full((4, 4, 1), 0.5)
        img[0, 0, 0] = -0.1
        with pytest.raises(ValueError):
            basic(BasicTransform(TransformId.EQUALIZE, 0.5), img)

    def test_solarize_inverts_above_threshold(self):
        img = np.array([[[0.2], [0.9]]])
        out = basic(BasicTransform(TransformId.SOLARIZE, 0.5), img)
        assert out[0, 0, 0] == 0.2          # below threshold 0.5
        assert abs(out[0, 1, 0] - 0.1) < 1e-12  # inverted


class TestInvariants:
    def test_dimension_and_range_preserved_for_all_transforms(self):
        rng = make_rng(60)
        for tid in ALL_IDS:
            for c in (1, 3):
                img = make_rng(61, int(tid), c).uniform(0, 1, size=(7, 9, c))
                for mag in (0.0, 0.5, 1.0):
                    for sign in (-1, 1):
                        out = basic(BasicTransform(tid, mag, sign), img)
                        assert out.shape == img.shape, tid
                        assert out.min() >= 0.0 and out.max() <= 1.0, tid

    def test_determinism_bit_identical(self):
        img = random_raster(7)
        for tid in ALL_IDS:
            t = BasicTransform(tid, 0.8, -1)
            a = basic(t, img)
            b = basic(t, img)
            np.testing.assert_array_equal(a, b)

    def test_geometric_magnitude_zero_neutrality(self):
        img = quantized_raster(8)
        neutral_at_zero = (TransformId.SOLARIZE, TransformId.POSTERIZE,
                           TransformId.ROTATE, TransformId.SHEAR_X,
                           TransformId.SHEAR_Y, TransformId.TRANSLATE_X,
                           TransformId.TRANSLATE_Y)
        for tid in neutral_at_zero:
            out = basic(BasicTransform(tid, 0.0), img)
            assert np.max(np.abs(out - img)) <= 1.0 / 255.0 + 1e-12, tid

    def test_whole_pixel_plan_reads_one_corner(self):
        # integer source coordinates give one corner of weight 1 everywhere
        cases = [BasicTransform(tid, mag, sign)
                 for tid in (TransformId.TRANSLATE_X, TransformId.TRANSLATE_Y)
                 for mag in (0.0, 0.5, 1.0) for sign in (-1, 1)]
        cases += [BasicTransform(tid, 0.0)
                  for tid in (TransformId.ROTATE, TransformId.SHEAR_X, TransformId.SHEAR_Y)]
        for t in cases:
            for h, w in ((7, 9), (8, 8)):
                plan = _bilinear_plan(t, h, w)
                assert len(plan) == 1, (t, h, w)
                np.testing.assert_array_equal(plan[0][1], 1.0)

    def test_enhancement_factor_one_neutrality(self):
        # blend factor f(0.5) = 1.0 exactly
        img = quantized_raster(9)
        for tid in (TransformId.BRIGHTNESS, TransformId.COLOR,
                    TransformId.CONTRAST, TransformId.SHARPNESS):
            out = basic(BasicTransform(tid, 0.5), img)
            assert np.max(np.abs(out - img)) <= 1.0 / 255.0 + 1e-12, tid


class TestComposite:
    def test_sample_length_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_composite(0, 0.5, make_rng(1))

    def test_single_sample_one_hot_vector(self):
        comp = sample_composite(1, 0.5, make_rng(10))
        v = composition_vector(comp)
        assert v.sum() == 1
        assert (v >= 0).all() and v.max() == 1

    def test_fixed_seed_reproduces_composite(self):
        a = sample_composite(4, 0.7, make_rng(11, 3))
        b = sample_composite(4, 0.7, make_rng(11, 3))
        assert a == b

    def test_uniform_sampling_statistics(self):
        # 10,000 single draws: each frequency within 2 points of 1/14
        counts = np.zeros(POOL_SIZE)
        rng = make_rng(12)
        for _ in range(10_000):
            comp = sample_composite(1, 0.5, rng)
            counts[int(comp.transforms[0].id)] += 1
        freqs = counts / 10_000
        assert np.all(np.abs(freqs - 1.0 / POOL_SIZE) < 0.02)

    def test_composition_vector_counts(self):
        comp = CompositeAugmentation((
            BasicTransform(TransformId.ROTATE, 0.5),
            BasicTransform(TransformId.ROTATE, 0.5),
            BasicTransform(TransformId.SOLARIZE, 0.5),
        ))
        v = composition_vector(comp)
        assert v[TransformId.ROTATE] == 2
        assert v[TransformId.SOLARIZE] == 1
        assert v.sum() == 3

    def test_composition_vector_order_invariant(self):
        t1 = BasicTransform(TransformId.SHEAR_X, 0.5)
        t2 = BasicTransform(TransformId.EQUALIZE, 0.5)
        a = composition_vector(CompositeAugmentation((t1, t2)))
        b = composition_vector(CompositeAugmentation((t2, t1)))
        np.testing.assert_array_equal(a, b)

    def test_composition_vector_matches_scan_oracle(self):
        comp = sample_composite(5, 0.5, make_rng(13))
        v = composition_vector(comp)
        oracle = np.zeros(POOL_SIZE, dtype=np.int64)
        for t in comp:
            oracle[int(t.id)] += 1
        np.testing.assert_array_equal(v, oracle)
        assert v.sum() == 5

    def test_empty_composite_rejected(self):
        with pytest.raises(ValueError):
            CompositeAugmentation(())

    def test_two_identities_bit_identical(self):
        img = random_raster(14)
        comp = CompositeAugmentation((
            BasicTransform(TransformId.IDENTITY, 0.3),
            BasicTransform(TransformId.IDENTITY, 0.9),
        ))
        np.testing.assert_array_equal(composite(comp, img), img)

    def test_composed_translations_add_away_from_fill(self):
        img = random_raster(15, h=8, w=16, c=1)
        m2 = 2.0 / (0.3 * 16)   # rounds to +2 px
        m4 = 4.0 / (0.3 * 16)   # rounds to +4 px
        t2 = BasicTransform(TransformId.TRANSLATE_X, m2, sign=1)
        twice = composite(CompositeAugmentation((t2, t2)), img)
        once = basic(BasicTransform(TransformId.TRANSLATE_X, m4, sign=1), img)
        # away from the filled left margin the results agree exactly
        np.testing.assert_array_equal(twice[:, 4:, :], once[:, 4:, :])

    def test_composite_output_in_range(self):
        img = random_raster(16)
        rng = make_rng(17)
        for _ in range(20):
            comp = sample_composite(int(rng.integers(1, 6)), 1.0, rng)
            out = composite(comp, img)
            assert out.min() >= 0.0 and out.max() <= 1.0


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestBatched:
    @pytest.mark.parametrize("channels", (1, 3))
    def test_batch_equals_batches_of_one(self, channels):
        # both signs of every transform in one batch, interleaved
        imgs = make_rng(64, channels).uniform(0.0, 1.0, size=(4, 7, 9, channels))
        for tid in ALL_IDS:
            comps = [CompositeAugmentation((BasicTransform(tid, 0.7, sign),))
                     for sign in (1, -1, -1, 1)]
            batched = apply_composite(comps, imgs)
            for i, (comp, img) in enumerate(zip(comps, imgs)):
                np.testing.assert_array_equal(batched[i], composite(comp, img),
                                              err_msg=f"{tid.name} sample {i}")

    def test_mixed_chains_equal_batches_of_one(self):
        rng = make_rng(65)
        comps = [sample_composite(int(rng.integers(1, 6)), 0.6, rng) for _ in range(12)]
        imgs = make_rng(66).uniform(0.0, 1.0, size=(12, 9, 7, 3))
        batched = apply_composite(comps, imgs)
        for i, (comp, img) in enumerate(zip(comps, imgs)):
            np.testing.assert_array_equal(batched[i], composite(comp, img))

    def test_composite_count_must_match_batch(self):
        comp = CompositeAugmentation((BasicTransform(TransformId.IDENTITY),))
        with pytest.raises(ValueError):
            apply_composite([comp], np.zeros((2, 4, 4, 1)))

    def test_sweep_matches_recorded_output(self):
        # sha256 of the per-image implementation's output, recorded before
        # transforms were batched; the pixel math has no BLAS, so it is portable
        outs = []
        for c in (1, 3):
            imgs = make_rng(61, c).uniform(0.0, 1.0, size=(3, 7, 9, c))
            for tid in ALL_IDS:
                for sign in (-1, 1):
                    for mag in (0.5, 0.9):
                        comp = CompositeAugmentation((BasicTransform(tid, mag, sign),))
                        outs.append(apply_composite([comp] * 3, imgs))
            rng = make_rng(62, c)
            comps = [sample_composite(int(rng.integers(1, 5)), 0.7, rng) for _ in range(6)]
            outs.append(apply_composite(comps, make_rng(63, c).uniform(0.0, 1.0,
                                                                       size=(6, 7, 9, c))))
        assert _sha256(*outs) == (
            "00186f07eba711fb34a3b0eab99cfe22cec3cc97eff0015f051ff8ae14441cb5")
