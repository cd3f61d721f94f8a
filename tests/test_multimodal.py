"""Multimodal plumbing tests: opaque-binary payload schema, task-map
decode stage, deterministic fake decode, strict NotImplementedError seam."""

from __future__ import annotations

import functools

import pyarrow as pa
import pytest

from casie_ray.stages.multimodal import (
    FEATURE_SCHEMA, MEDIA_SCHEMA, decode_media, media_features,
)

SF_DIR = "/root/testdata/sf0.001"


def _batch():
    return pa.table({
        "media_id": pa.array([1, 2], pa.int64()),
        "media_type": pa.array(["image", "audio"], pa.string()),
        "payload": pa.array([b"\x89PNG fake", b""], pa.binary()),
        "source": pa.array(["s", "s"], pa.string()),
    }).cast(MEDIA_SCHEMA)


def test_decoder_deterministic():
    out1 = decode_media(_batch())
    out2 = decode_media(_batch())
    assert out1.schema.equals(FEATURE_SCHEMA)
    assert out1.equals(out2)
    assert out1.column("n_bytes").to_pylist() == [9, 0]


def test_decoder_strict_raises():
    with pytest.raises(NotImplementedError):
        decode_media(_batch(), strict=True)


def test_media_pipeline_end_to_end(ray_session):
    ds = media_features(SF_DIR)
    tbl = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    assert tbl.schema.equals(FEATURE_SCHEMA)
    assert tbl.num_rows == 500  # one row per sf0.001 document
    assert set(tbl.column("media_type").to_pylist()) == {
        "image", "audio", "video"}
    embs = tbl.column("embedding").to_pylist()
    assert all(len(e) == 16 for e in embs)


def test_real_codecs_roundtrip(ray_session, tmp_path):
    """BMP/PPM/WAV are decoded FOR REAL: encode known pixels/samples,
    run them through the decode_media task map, and check the decoded
    dimensions / luma / sample-rate / duration / RMS against values
    computed independently. Unknown formats still take the seam (strict
    raises; default falls back to the deterministic fake)."""
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray

    from casie_ray.stages.multimodal import (MEDIA_SCHEMA, decode_media,
                                             encode_bmp, encode_wav)

    rng = np.random.default_rng(5)
    pixels = rng.integers(0, 256, size=(12, 7, 3), dtype=np.uint8)
    want_luma = float((pixels.astype(np.float64)
                       @ np.array([0.299, 0.587, 0.114])).mean() / 255.0)
    bmp = encode_bmp(pixels)

    samples = (1000.0 * np.sin(np.arange(1600) * 0.1)).astype(np.int16)
    want_rms = float(np.sqrt(((samples / 32768.0) ** 2).mean()))
    wav = encode_wav(samples, rate=8000)

    ppm = (b"P6\n# comment\n7 12\n255\n"
           + pixels.tobytes())                    # same pixels, RGB raw

    tbl = pa.table({
        "media_id": pa.array([1, 2, 3, 4], pa.int64()),
        "media_type": pa.array(["image", "audio", "image", "video"],
                               pa.string()),
        "payload": pa.array([bmp, wav, ppm, b"\x00\x01mp4ish"],
                            pa.binary()),
        "source": pa.array(["t"] * 4, pa.string()),
    }).cast(MEDIA_SCHEMA)
    ds = ray.data.from_arrow(tbl)
    df = ds.map_batches(decode_media, batch_format="pyarrow",
                        batch_size=2).to_pandas() \
        .set_index("media_id")

    b = df.loc[1]
    assert (b["decoder"], b["width"], b["height"]) == ("bmp", 7, 12)
    assert abs(b["mean_luma"] - want_luma) < 1e-6
    w = df.loc[2]
    assert (w["decoder"], w["sample_rate"], w["duration_ms"]) == \
        ("wav", 8000, 200)
    assert abs(w["rms"] - want_rms) < 1e-6
    p = df.loc[3]
    assert (p["decoder"], p["width"], p["height"]) == ("ppm", 7, 12)
    assert abs(p["mean_luma"] - want_luma) < 1e-6
    f = df.loc[4]
    assert f["decoder"] == "fake" and f["width"] >= 64

    # the compressed-codec seam still raises in strict mode
    strictd = functools.partial(decode_media, strict=True)
    with pytest.raises(NotImplementedError):
        strictd(tbl.slice(3, 1))
    # real formats decode even in strict mode
    out = strictd(tbl.slice(0, 1))
    assert out.column("decoder").to_pylist() == ["bmp"]


def test_average_hash_noise_invariance():
    """aHash is stable under small pixel noise and differs across
    genuinely different images."""
    import numpy as np

    from casie_ray.stages.multimodal import average_hash

    rng = np.random.default_rng(7)
    base = rng.integers(0, 256, (40, 56, 3), dtype=np.uint8)
    # strong structure so block means are far from the threshold
    base[:20] = np.minimum(base[:20] // 4, 40)
    base[20:] = np.maximum(255 - base[20:] // 4, 200)
    noisy = base.astype(np.int16) + rng.integers(-3, 4, base.shape)
    noisy = np.clip(noisy, 0, 255).astype(np.uint8)
    other = rng.integers(0, 256, (40, 56, 3), dtype=np.uint8)
    h0, h1, h2 = (average_hash(x) for x in (base, noisy, other))
    assert bin(h0 ^ h1).count("1") <= 2
    assert bin(h0 ^ h2).count("1") > 8


def test_media_phash_pairs_planted(ray_session):
    """Banded aHash pair search finds the planted noisy copy and
    nothing else, over real encoded BMP payloads."""
    import numpy as np
    import pyarrow as pa
    import ray

    from casie_ray.stages.multimodal import (MEDIA_SCHEMA, encode_bmp,
                                             media_phash_pairs)

    rng = np.random.default_rng(3)
    imgs = []
    for i in range(6):
        # distinct blocky binary pattern per image -> aHash ~ the mask
        mask = rng.integers(0, 2, (8, 8)).astype(np.uint8)
        m = np.repeat(np.repeat(mask * 255, 4, 0), 4, 1)
        imgs.append(np.stack([m, m, m], axis=2))
    noisy = np.clip(imgs[0].astype(np.int16)
                    + rng.integers(-2, 3, imgs[0].shape),
                    0, 255).astype(np.uint8)
    imgs.append(noisy)  # media_id 6 ~ media_id 0
    t = pa.table({
        "media_id": pa.array(list(range(len(imgs))), pa.int64()),
        "media_type": pa.array(["image"] * len(imgs), pa.string()),
        "payload": pa.array([encode_bmp(m) for m in imgs],
                            pa.binary()),
        "source": pa.array(["t"] * len(imgs), pa.string()),
    }).cast(MEDIA_SCHEMA)
    ds = ray.data.from_arrow(t)
    out = media_phash_pairs(ds).to_pandas()
    assert len(out) == 1
    assert (out.iloc[0]["media_a"], out.iloc[0]["media_b"]) == (0, 6)
    assert out.iloc[0]["hamming"] <= 4


def test_audio_fingerprint_invariances():
    """Spectral fingerprint is gain-invariant and noise-stable, and
    separates different signals."""
    import numpy as np

    from casie_ray.stages.multimodal import audio_fingerprint

    rng = np.random.default_rng(11)
    t = np.arange(16000) / 16000.0
    # chirpy structured signal: per-frame distinct dominant bands
    base = np.concatenate([
        np.sin(2 * np.pi * (200 + 400 * k) * t[:1000])
        for k in range(16)])
    noisy = base + rng.normal(0, 0.01, base.shape)
    other = np.concatenate([
        np.sin(2 * np.pi * (6000 - 300 * k) * t[:1000])
        for k in range(16)])
    h0 = audio_fingerprint(base)
    assert audio_fingerprint(base * 1.3) == h0  # gain invariance
    assert bin(h0 ^ audio_fingerprint(noisy)).count("1") <= 3
    assert bin(h0 ^ audio_fingerprint(other)).count("1") > 8


def test_media_audio_fp_pairs_planted(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from casie_ray.stages.multimodal import (MEDIA_SCHEMA, encode_wav,
                                             media_audio_fp_pairs)

    rng = np.random.default_rng(5)
    t = np.arange(8000) / 16000.0
    sigs = []
    for i in range(5):
        f = 300 + 170 * i
        s = np.concatenate([
            np.sin(2 * np.pi * (f + 80 * k) * t[:500])
            for k in range(16)])
        sigs.append((s * 20000).astype(np.int16))
    noisy = np.clip(sigs[0].astype(np.float64)
                    + rng.normal(0, 100, sigs[0].shape),
                    -32768, 32767).astype(np.int16)
    sigs.append(noisy)  # id 5 ~ id 0
    tbl = pa.table({
        "media_id": pa.array(list(range(len(sigs))), pa.int64()),
        "media_type": pa.array(["audio"] * len(sigs), pa.string()),
        "payload": pa.array([encode_wav(s) for s in sigs],
                            pa.binary()),
        "source": pa.array(["t"] * len(sigs), pa.string()),
    }).cast(MEDIA_SCHEMA)
    out = media_audio_fp_pairs(ray.data.from_arrow(tbl)).to_pandas()
    assert len(out) == 1
    assert (out.iloc[0]["media_a"], out.iloc[0]["media_b"]) == (0, 5)


def test_frame_sample_and_video_near_dup(ray_session):
    """RAWV decode + frame sampling are real: sampled rows carry true
    per-frame stats, and the frame-hash pair search finds the planted
    re-encoded/noisy copy only."""
    import numpy as np
    import pyarrow as pa
    import ray

    from casie_ray.stages.multimodal import (MEDIA_SCHEMA, decode_media,
                                             encode_rawv, frame_sample,
                                             video_near_dup_pairs)

    rng = np.random.default_rng(9)

    def clip(n_frames, seed):
        r = np.random.default_rng(seed)
        frames = []
        for _ in range(n_frames):
            mask = r.integers(0, 2, (8, 8)).astype(np.uint8)
            f = np.repeat(np.repeat(mask * 255, 3, 0), 4, 1)
            frames.append(np.stack([f, f, f], axis=2))
        return np.stack(frames)

    vids = [clip(12, s) for s in (1, 2, 3)]
    noisy = np.clip(vids[0].astype(np.int16)
                    + rng.integers(-2, 3, vids[0].shape),
                    0, 255).astype(np.uint8)
    vids.append(noisy)  # id 3 ~ id 0
    tbl = pa.table({
        "media_id": pa.array(list(range(len(vids))), pa.int64()),
        "media_type": pa.array(["video"] * len(vids), pa.string()),
        "payload": pa.array([encode_rawv(v) for v in vids],
                            pa.binary()),
        "source": pa.array(["t"] * len(vids), pa.string()),
    }).cast(MEDIA_SCHEMA)
    ds = ray.data.from_arrow(tbl)

    fr = frame_sample(ds, every_k=5).to_pandas()
    assert len(fr) == 4 * 3  # frames 0,5,10 per 12-frame clip
    assert (fr["width"] == 32).all() and (fr["height"] == 24).all()

    out = video_near_dup_pairs(ds, every_k=5,
                               min_shared=2).to_pandas()
    assert len(out) == 1
    assert (out.iloc[0]["media_a"], out.iloc[0]["media_b"]) == (0, 3)
    assert out.iloc[0]["n_shared"] == 3

    # decode_media routes RAWV for real
    dec = decode_media(tbl.slice(0, 1), strict=True).to_pylist()[0]
    assert dec["decoder"] == "rawv"
    assert (dec["width"], dec["height"]) == (32, 24)
    assert dec["sample_rate"] == 10 and dec["duration_ms"] == 1200


def test_average_hash_tiny_images_not_degenerate():
    """Sub-8px images must hash via upsampling, not collapse to 0x0
    (the nan-block bug would pair every tiny image as an exact dup)."""
    import numpy as np

    from casie_ray.stages.multimodal import average_hash

    rng = np.random.default_rng(13)
    a = np.repeat(np.repeat(
        rng.integers(0, 2, (4, 6)).astype(np.uint8) * 255, 1, 0),
        2, 1)
    a = np.stack([a, a, a], axis=2)  # 4x12
    b = rng.integers(0, 256, (5, 9, 3), dtype=np.uint8)
    ha, hb = average_hash(a), average_hash(b)
    assert ha != 0 and hb != 0
    assert ha != hb
    assert average_hash(np.zeros((0, 3, 3), np.uint8)) == 0


def test_band_pairs_wide_media_ids(ray_session):
    """Pair identity uses both full-width id columns — ids above 2^32
    must not collide (the packed-uint64 key would)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from casie_ray.stages.multimodal import hash64_band_pairs

    big = 1 << 33
    t = pa.table({
        "media_id": pa.array([big + 1, big + 2, 7], pa.int64()),
        "ahash": pa.array(np.array([5, 5, 5], np.uint64), pa.uint64()),
    })
    out = hash64_band_pairs(ray.data.from_arrow(t), 0).to_pandas()
    got = {(r["media_a"], r["media_b"]) for _, r in out.iterrows()}
    assert got == {(big + 1, big + 2), (7, big + 1), (7, big + 2)}


def test_synthetic_media_fixture_deterministic_and_planted(ray_session):
    """The driver-checkable fixture: payload bytes are a pure function
    of doc_id (two generations byte-identical), and the GUARANTEED
    planted near-dups are recovered — image dups carry <= 3 XOR flips
    (pigeonhole over 4 bands cannot miss them) and video dups share
    every sampled template frame (n_shared >= 2)."""
    import hashlib

    import pyarrow.parquet as pq

    from casie_ray.stages.multimodal import (
        DUP_EVERY, media_phash_pairs_q, media_video_near_dup_q,
        synthetic_media,
    )

    def digest():
        rows = synthetic_media(SF_DIR).take_all()
        h = hashlib.sha256()
        for r in sorted(rows, key=lambda r: r["media_id"]):
            h.update(r["payload"])
        return h.hexdigest(), len(rows)

    d1, n1 = digest()
    d2, n2 = digest()
    assert d1 == d2 and n1 == n2 > 0

    ids = set(pq.read_table(f"{SF_DIR}/documents.parquet",
                            columns=["doc_id"])
              .column("doc_id").to_pylist())
    planted_img = {(d - 3, d) for d in ids
                   if (d // 3) % DUP_EVERY == 1 and d >= 3
                   and d % 3 == 0 and d - 3 in ids}
    planted_vid = {(d - 3, d) for d in ids
                   if (d // 3) % DUP_EVERY == 1 and d >= 3
                   and d % 3 == 2 and d - 3 in ids}
    assert planted_img and planted_vid

    img = media_phash_pairs_q(SF_DIR).to_pandas()
    got_img = set(zip(img["media_a"], img["media_b"]))
    assert planted_img <= got_img
    assert (img["hamming"] <= 4).all()

    vid = media_video_near_dup_q(SF_DIR).to_pandas()
    got_vid = set(zip(vid["media_a"], vid["media_b"]))
    assert planted_vid <= got_vid
    assert (vid["n_shared"] >= 2).all()


def test_shot_boundaries_planted(ray_session):
    """Shot fixture: cuts exactly at shot-length multiples (within-shot
    frames are byte-identical -> delta 0), every detected delta is a
    plausible cross-shot bit distance, and the count per video is
    ceil(nf / run) - 1."""
    import numpy as np

    from casie_ray.stages.multimodal import (
        SHOT_HAMMING_T, _fixture_shot_video_payload, shot_cuts,
        _rawv_frames,
    )
    from casie_ray.ops.bucketing import mix64
    from casie_ray.stages.multimodal import (FAM_SHOT_COUNT,
                                             FAM_SHOT_LEN,
                                             SHOT_MIN_FRAMES)

    stage = shot_cuts
    for d in (0, 1, 7, 40, 123):
        p = _fixture_shot_video_payload(d)
        nf = SHOT_MIN_FRAMES + int(mix64(
            [np.array([d * 8 + FAM_SHOT_COUNT], np.uint64)])[0]
            % np.uint64(5))
        run = 3 + int(mix64(
            [np.array([d * 8 + FAM_SHOT_LEN], np.uint64)])[0]
            % np.uint64(3))
        assert len(_rawv_frames(p)[0]) == nf
        out = stage(pa.table({
            "media_id": pa.array([d], pa.int64()),
            "payload": pa.array([p], pa.binary()),
        }))
        fis = out.column("frame_idx").to_pylist()
        # cuts exactly at run multiples below nf
        assert fis == [f for f in range(run, nf, run)]
        assert all(x >= SHOT_HAMMING_T
                   for x in out.column("delta_bits").to_pylist())
    # non-video payloads are dropped, not errors
    junk = stage(pa.table({
        "media_id": pa.array([9], pa.int64()),
        "payload": pa.array([b"BMnotavideo"], pa.binary()),
    }))
    assert junk.num_rows == 0
