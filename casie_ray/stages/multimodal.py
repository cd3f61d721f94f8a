"""Multimodal (image/audio/video) column plumbing.

Media is carried as an opaque ``binary`` column plus typed metadata;
decode / feature-extraction runs as a task ``map_batches`` stage (a
plain batch function: no stage holds state) with SMALL batches
(payloads are large — one batch must fit a worker's heap; the object
store spills the rest).

Codecs: formats decodable with stdlib + numpy are decoded FOR REAL —
24-bit uncompressed BMP and binary PPM (P6) images (hand-parsed
headers, vectorized pixel math) and PCM WAV audio (stdlib ``wave``):
true width/height/mean-luma for images, sample-rate/duration/RMS for
audio; video ships in the RAWV raw container (header + concatenated
RGB frames) with a REAL frame-sample stage, per-frame stats/aHash and
frame-set near-dup pairs. Compressed formats (JPEG/PNG/MP3/MP4 —
PIL/ffmpeg are NOT in this environment) hit the documented seam: ``strict=True`` raises
NotImplementedError exactly where a real codec plugs in; the default
falls back to a deterministic fake decode (pure function of the
payload bytes) so the Ray-side plumbing stays testable end-to-end on
arbitrary payloads. ``encode_bmp`` / ``encode_wav`` are the matching
fixture encoders (round-trip tested).
"""

from __future__ import annotations

import hashlib
import struct
import wave

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("media_type", pa.string()),          # image | audio | video
    ("payload", pa.binary()),             # opaque encoded bytes
    ("source", pa.string()),
])

FEATURE_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("media_type", pa.string()),
    ("n_bytes", pa.int64()),
    ("checksum", pa.int64()),
    ("decoder", pa.string()),             # bmp | ppm | wav | rawv | fake
    ("width", pa.int32()),                # images (0 for audio/fake)
    ("height", pa.int32()),
    ("mean_luma", pa.float32()),          # images; fake path digest luma
    ("sample_rate", pa.int32()),          # audio (0 otherwise)
    ("duration_ms", pa.int64()),          # audio (0 otherwise)
    ("rms", pa.float32()),                # audio (0 otherwise)
    ("embedding", pa.list_(pa.float32())),
])

_LUMA = np.array([0.299, 0.587, 0.114], np.float64)


def encode_bmp(pixels: np.ndarray) -> bytes:
    """(h, w, 3) uint8 RGB -> 24-bit uncompressed BMP bytes (bottom-up
    rows, BGR, 4-byte row padding — the classic BITMAPINFOHEADER)."""
    h, w, _ = pixels.shape
    row = w * 3
    pad = (-row) % 4
    body = bytearray()
    for r in range(h - 1, -1, -1):                 # bottom-up
        body += pixels[r, :, ::-1].tobytes()       # RGB -> BGR
        body += b"\x00" * pad
    off = 14 + 40
    size = off + len(body)
    hdr = struct.pack("<2sIHHI", b"BM", size, 0, 0, off)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(body),
                       2835, 2835, 0, 0)
    return hdr + info + bytes(body)


def encode_wav(samples: np.ndarray, rate: int = 16000) -> bytes:
    """1-D int16 PCM -> mono WAV bytes via the stdlib codec."""
    import io
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(samples.astype("<i2").tobytes())
    return buf.getvalue()


def _bmp_pixels(payload: bytes) -> np.ndarray:
    """24-bit uncompressed BMP -> (h, w, 3) uint8 RGB."""
    off, = struct.unpack_from("<I", payload, 10)
    w, h = struct.unpack_from("<ii", payload, 18)
    bpp, = struct.unpack_from("<H", payload, 28)
    comp, = struct.unpack_from("<I", payload, 30)
    if bpp != 24 or comp != 0:
        raise ValueError(f"unsupported BMP (bpp={bpp}, comp={comp})")
    flip = h < 0                                   # top-down variant
    h = abs(h)
    row = ((w * 3 + 3) // 4) * 4
    data = np.frombuffer(payload, np.uint8, count=h * row, offset=off) \
        .reshape(h, row)[:, :w * 3].reshape(h, w, 3)
    if not flip:
        data = data[::-1]
    return data[:, :, ::-1]                        # BGR -> RGB


def _decode_bmp(payload: bytes):
    rgb = _bmp_pixels(payload)
    h, w = rgb.shape[:2]
    luma = float((rgb.astype(np.float64) @ _LUMA).mean() / 255.0)
    return w, h, luma


def _ppm_header(payload: bytes):
    """P6 header: magic, width, height, maxval as ASCII tokens
    (comments allowed), then one whitespace byte, then raw RGB."""
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(payload) and payload[pos:pos + 1].isspace():
            pos += 1
        if payload[pos:pos + 1] == b"#":
            pos = payload.index(b"\n", pos) + 1
            continue
        end = pos
        while end < len(payload) and not payload[end:end + 1].isspace():
            end += 1
        fields.append(int(payload[pos:end]))
        pos = end
    w, h, maxval = fields
    if maxval > 255:
        # 16-bit P6 stores 2 bytes/sample; the 1-byte body parse
        # below would silently interleave sample halves
        raise ValueError(f"unsupported PPM maxval {maxval}")
    return w, h, maxval, pos + 1


def _ppm_pixels(payload: bytes) -> np.ndarray:
    """Binary PPM (P6) -> (h, w, 3) uint8 RGB."""
    w, h, _maxval, pos = _ppm_header(payload)
    return np.frombuffer(payload, np.uint8, count=h * w * 3,
                         offset=pos).reshape(h, w, 3)


def _decode_ppm(payload: bytes):
    w, h, maxval, pos = _ppm_header(payload)
    data = np.frombuffer(payload, np.uint8, count=h * w * 3,
                         offset=pos).reshape(h, w, 3)
    luma = float((data.astype(np.float64) @ _LUMA).mean() / maxval)
    return w, h, luma


def _wav_samples(payload: bytes):
    """PCM WAV -> (rate, n_frames, float64 samples in [-1, 1])."""
    import io
    with wave.open(io.BytesIO(payload), "rb") as wf:
        rate = wf.getframerate()
        width = wf.getsampwidth()
        n = wf.getnframes()
        raw = wf.readframes(n)
    if width == 2:
        x = np.frombuffer(raw, "<i2").astype(np.float64) / 32768.0
    elif width == 1:
        x = (np.frombuffer(raw, np.uint8).astype(np.float64) - 128) / 128
    else:
        # 24/32-bit PCM would be silently mis-decoded as bytes —
        # route to the unsupported-format seam instead
        raise ValueError(f"unsupported WAV sample width {width}")
    return rate, n, x


def _decode_wav(payload: bytes):
    rate, n, x = _wav_samples(payload)
    rms = float(np.sqrt((x * x).mean())) if len(x) else 0.0
    duration_ms = int(round(1000.0 * n / rate)) if rate else 0
    return rate, duration_ms, rms

# recommended map_batches sizing for large binary payloads
MEDIA_BATCH_SIZE = 16
EMBED_DIM = 16


def _decode(payload: bytes, strict: bool) -> dict:
    """Route by magic bytes: BMP / PPM(P6) / WAV / RAWV decode for real;
    anything else is the compressed-codec seam (strict raises, the
    default falls back to the deterministic fake)."""
    zero = {"width": 0, "height": 0, "mean_luma": 0.0,
            "sample_rate": 0, "duration_ms": 0, "rms": 0.0}
    try:
        if payload[:2] == b"BM":
            w, h, luma = _decode_bmp(payload)
            return {**zero, "decoder": "bmp", "width": w,
                    "height": h, "mean_luma": luma}
        if payload[:2] == b"P6":
            w, h, luma = _decode_ppm(payload)
            return {**zero, "decoder": "ppm", "width": w,
                    "height": h, "mean_luma": luma}
        if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
            rate, dur, rms = _decode_wav(payload)
            return {**zero, "decoder": "wav", "sample_rate": rate,
                    "duration_ms": dur, "rms": rms}
        if payload[:4] == RAWV_MAGIC:
            frames, fps = _rawv_frames(payload)
            luma = float((frames.astype(np.float64) @ _LUMA)
                         .mean() / 255.0)
            return {**zero, "decoder": "rawv",
                    "width": frames.shape[2],
                    "height": frames.shape[1], "mean_luma": luma,
                    "sample_rate": fps,
                    "duration_ms": int(round(
                        1000.0 * len(frames) / fps)) if fps else 0}
    except (ValueError, struct.error, EOFError, IndexError,
            wave.Error) as e:
        if strict:
            raise NotImplementedError(
                f"payload sniffed as media but undecodable: {e}") from e
    if strict:
        raise NotImplementedError(
            "no native codec for this payload format (PIL/ffmpeg "
            "absent in this environment; BMP/PPM/WAV decode "
            "natively) — plug a real decoder here")
    # deterministic fake decode: dims and luma from the digest
    d = hashlib.blake2b(payload or b"", digest_size=16).digest()
    return {**zero, "decoder": "fake", "width": 64 + d[0] * 8,
            "height": 64 + d[1] * 8, "mean_luma": d[2] / 255.0}


def _embed(payload: bytes) -> np.ndarray:
    d = hashlib.blake2b(payload or b"", digest_size=2 * EMBED_DIM,
                        person=b"mmemb").digest()
    v = np.frombuffer(d, dtype=np.uint8)[:EMBED_DIM].astype(np.float32)
    v = v - v.mean()
    n = float(np.linalg.norm(v))
    return v / n if n else v


def decode_media(batch: pa.Table, strict: bool = False) -> pa.Table:
    """Decode/feature task stage:
    map_batches(decode_media, batch_size=MEDIA_BATCH_SIZE,
                batch_format="pyarrow"[, fn_kwargs={"strict": True}]).

    A real codec or model would be loaded once per worker process
    through ``detect.per_process`` (the stage-A extractor's slot)."""
    rows = []
    for mid, mtype, p in zip(batch.column("media_id").to_pylist(),
                             batch.column("media_type").to_pylist(),
                             batch.column("payload").to_pylist()):
        p = p or b""
        rows.append({
            "media_id": mid, "media_type": mtype,
            "n_bytes": len(p),
            # 60-bit sha256 prefix: DuckDB reproduces this exactly
            # (CAST('0x'||substring(sha256(payload),1,15) AS BIGINT)),
            # making the metadata half of this stage oracle-checkable
            "checksum": int(hashlib.sha256(p).hexdigest()[:15], 16),
            **_decode(p, strict),
            "embedding": _embed(p).tolist(),
        })
    return pa.Table.from_pylist(rows, schema=FEATURE_SCHEMA)


def documents_as_media(sf_dir: str):
    """Wrap the documents table as a media table (text bytes standing in
    for encoded payloads) — the fixture for the decode plumbing."""
    import ray.data

    def wrap(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n = batch.num_rows
        return pa.table({
            "media_id": batch.column("doc_id").cast(pa.int64()),
            "media_type": pa.array(
                [("image", "audio", "video")[i % 3]
                 for i in batch.column("doc_id").to_pylist()], pa.string()),
            "payload": pa.array([(t or "").encode() for t in texts],
                                pa.binary()),
            "source": batch.column("source") if "source" in
            batch.column_names else pa.array(["doc"] * n, pa.string()),
        }).cast(MEDIA_SCHEMA)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "source"])
    return ds.map_batches(wrap, batch_format="pyarrow")


def media_features(sf_dir: str):
    """documents -> media payloads -> decode/features task map."""
    return documents_as_media(sf_dir).map_batches(
        decode_media, batch_format="pyarrow", batch_size=MEDIA_BATCH_SIZE)


def media_dedup(sf_dir: str):
    """Exact payload dedup over the media table: one row per distinct
    payload checksum (min media_id + copy count). The multimodal twin of
    ops.dedup.exact_dedup: per-batch combiner over the 60-bit sha256
    prefix, bucketed exchange, vectorized per-bucket reduce — payload
    BYTES never cross the exchange, only (checksum, id, count) rows."""
    import numpy as np

    from ..ops.bucketing import bucket_groupby, hash_bucket

    def partial(batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        sums = np.fromiter(
            (int(hashlib.sha256(p or b"").hexdigest()[:15], 16)
             for p in payloads), dtype=np.int64, count=len(payloads))
        t = pa.table({
            "checksum": pa.array(sums, pa.int64()),
            "media_id": batch.column("media_id"),
            "n_copies": pa.array(np.ones(len(sums), np.int64)),
        })
        g = t.group_by(["checksum"]).aggregate(
            [("media_id", "min"), ("n_copies", "sum")])
        g = g.rename_columns(["checksum", "media_id", "n_copies"])
        return g.append_column(
            "bucket", pa.array(hash_bucket([g.column("checksum")]),
                               pa.int32()))

    def final(group: pa.Table) -> pa.Table:
        g = group.group_by(["checksum"]).aggregate(
            [("media_id", "min"), ("n_copies", "sum")])
        return g.rename_columns(["checksum", "media_id", "n_copies"])

    ds = documents_as_media(sf_dir).map_batches(partial,
                                                batch_format="pyarrow")
    return bucket_groupby(ds, final)


# ---------------------------------------------------------------------------
# Perceptual near-duplicate detection over REAL decoded pixels: 64-bit
# average-hash (grayscale -> 8x8 block means -> bit per cell vs the
# global mean), then the simhash-style band-blocking shuffle — images
# sharing any 16-bit hash band are candidates, verified by exact
# Hamming distance inside the band bucket. Payload bytes decode once
# in the task stage; only (media_id, ahash) rows cross the
# exchanges. Re-encodes and tiny pixel noise keep the same aHash;
# different images do not (planted test).
# ---------------------------------------------------------------------------

AHASH_HAMMING_T = 4


def average_hash(rgb: np.ndarray) -> int:
    """(h, w, 3) uint8 RGB -> 64-bit aHash via exact block-mean
    downsample to 8x8 (integral-image sums). Images narrower than 8px
    in either dimension are nearest-neighbor upsampled first — without
    this, zero-area blocks divide to nan and EVERY tiny image hashes
    to 0, pairing unrelated thumbnails as exact near-dups."""
    g = rgb.astype(np.float64) @ _LUMA
    h, w = g.shape
    if h == 0 or w == 0:
        return 0
    if h < 8:
        g = np.repeat(g, -(-8 // h), axis=0)
    if w < 8:
        g = np.repeat(g, -(-8 // w), axis=1)
    h, w = g.shape
    ys = (np.arange(9) * h) // 8
    xs = (np.arange(9) * w) // 8
    c = np.zeros((h + 1, w + 1))
    c[1:, 1:] = g.cumsum(0).cumsum(1)
    s = (c[ys[1:, None], xs[None, 1:]] - c[ys[:-1, None], xs[None, 1:]]
         - c[ys[1:, None], xs[None, :-1]]
         + c[ys[:-1, None], xs[None, :-1]])
    area = (ys[1:, None] - ys[:-1, None]) * (xs[None, 1:] - xs[None, :-1])
    m = s / area
    bits = (m > m.mean()).reshape(-1)
    return int(np.packbits(bits.astype(np.uint8)).view(">u8")[0])


def _hash_rows(ids: list, hashes: list) -> pa.Table:
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "ahash": pa.array(np.array(hashes, dtype=np.uint64), pa.uint64()),
    })


def image_hashes(batch: pa.Table) -> pa.Table:
    """Task stage: decode image payloads (BMP/PPM) and emit
    (media_id, ahash); non-image/undecodable rows are dropped."""
    out_id, out_h = [], []
    for mid, p in zip(batch.column("media_id").to_pylist(),
                      batch.column("payload").to_pylist()):
        p = p or b""
        try:
            if p[:2] == b"BM":
                rgb = _bmp_pixels(p)
            elif p[:2] == b"P6":
                rgb = _ppm_pixels(p)
            else:
                continue
            out_id.append(mid)
            out_h.append(average_hash(rgb))
        except (ValueError, struct.error, IndexError):
            continue
    return _hash_rows(out_id, out_h)


def hash64_band_pairs(rows_ds, hamming_t: int):
    """Generic banded near-dup search over a (media_id, ahash:uint64)
    Dataset: 4×16-bit band blocking (pigeonhole guarantees recall for
    Hamming ≤ 3; at t=4 a pair with exactly one flipped bit in every
    band is missed — the same documented banding approximation as
    SimHash), in-bucket exact Hamming verify, distinct pairs. Shared
    by the image aHash and audio fingerprint stages."""
    from ..ops.bucketing import bucket_groupby, hash_bucket

    def bands(batch: pa.Table) -> pa.Table:
        ids = batch.column("media_id").to_numpy(zero_copy_only=False)
        h = batch.column("ahash").to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        rid = np.repeat(ids, 4)
        rh = np.repeat(h, 4)
        band = np.tile(np.arange(4, dtype=np.int64), len(ids))
        key = ((rh >> (np.uint64(16) * band.astype(np.uint64)))
               & np.uint64(0xFFFF)).astype(np.int64)
        key = key * 4 + band  # band id folded into the block key
        return pa.table({
            "key": pa.array(key, pa.int64()),
            "media_id": pa.array(rid, pa.int64()),
            "ahash": pa.array(rh, pa.uint64()),
            "bucket": pa.array(hash_bucket([key]), pa.int32()),
        })

    def pairs(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy(zero_copy_only=False)
        ids = group.column("media_id").to_numpy(zero_copy_only=False)
        h = group.column("ahash").to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        order = np.lexsort((ids, key))
        key, ids, h = key[order], ids[order], h[order]
        # band-cap guard (the repo-standard boilerplate cap): a band
        # value shared by >1024 images (flat-color thumbnails) would
        # generate O(n^2) candidates in one segment; drop that band —
        # such images still pair through their other 3 bands unless
        # hot everywhere (documented approximation at the cap)
        starts = np.flatnonzero(
            np.concatenate([[True], key[1:] != key[:-1]])) \
            if len(key) else np.zeros(0, np.int64)
        sizes = np.diff(np.append(starts, len(key)))
        keep_rows = np.repeat(sizes, sizes) <= 1024
        key, ids, h = key[keep_rows], ids[keep_rows], h[keep_rows]
        from ..ops.dedup import segment_pair_indices
        ia, ib = segment_pair_indices([key])
        if len(ia) == 0:
            return pa.table({"media_a": pa.array([], pa.int64()),
                             "media_b": pa.array([], pa.int64()),
                             "hamming": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int32())})
        x = h[ia] ^ h[ib]
        ham = np.zeros(len(x), np.int64)
        while x.any():
            ham += (x & np.uint64(1)).astype(np.int64)
            x >>= np.uint64(1)
        keep = ham <= hamming_t
        a = np.minimum(ids[ia], ids[ib])[keep]
        b = np.maximum(ids[ia], ids[ib])[keep]
        ham = ham[keep]
        # bucket on BOTH full-width ids (the _sub_pairs_bucket shape);
        # packing two int64 ids into one uint64 would collide past 2^32
        return pa.table({
            "media_a": pa.array(a, pa.int64()),
            "media_b": pa.array(b, pa.int64()),
            "hamming": pa.array(ham, pa.int64()),
            "bucket": pa.array(hash_bucket([a, b]), pa.int32()),
        })

    def distinct(group: pa.Table) -> pa.Table:
        g = group.group_by(["media_a", "media_b"]).aggregate(
            [("hamming", "min")])
        return g.rename_columns(["media_a", "media_b", "hamming"])

    banded = rows_ds.map_batches(bands, batch_format="pyarrow",
                                 batch_size=None)
    return bucket_groupby(bucket_groupby(banded, pairs), distinct)


# ---------------------------------------------------------------------------
# Deterministic synthetic media fixture (the driver-checkable corpus):
# every payload is a REAL container (BMP / WAV / RAWV) whose decoded
# content is a pure splitmix64 function of doc_id, constructed so the
# perceptual hashes the decode chain produces are INTEGER-exact and
# therefore reproducible in the DuckDB oracle without decoding:
#   images  — 8x8 gray pixels v in {32, 224}: aHash bit i == raw bit i
#             via the exact integer comparison v_i*64 > sum(v) (the
#             two-value margin makes the engine's float block-mean
#             path tie-free);
#   audio   — 16 frames x 4 FFT bands, per band EXACTLY 8 "high"
#             frames (rank of a splitmix value), each high cell a
#             full-period sinusoid at its band-center bin: the
#             median-threshold fingerprint bit == the rank bit with
#             ~11 orders of magnitude of margin;
#   video   — RAWV of 8x8 two-value frames keyed by (content, fidx).
# Planted near-dups: docs with (doc_id // 3) % 25 == 1 reuse the
# content stream of doc_id - 3 (same media type), images with <= 3
# XOR bit flips, audio with a rank-8/9 swap in bands 0 and 2
# (Hamming 4), video byte-identical frames. The SQL twins in
# __ray_entry__ recompute hashes from the same integer streams and
# mirror the band-blocking pair search exactly.
# ---------------------------------------------------------------------------

# mix64 key families (engine + SQL twins share these literals)
FAM_IMG_BITS = 0
FAM_AUDIO_RANK = 1
FAM_VIDEO_BITS = 2
FAM_IMG_FLIPS = 3
FAM_VIDEO_COUNT = 4
DUP_EVERY = 25          # (doc_id // 3) % DUP_EVERY == 1 -> near-dup doc
AUDIO_FIXTURE_SAMPLES = 1600     # 16 frames x 100 samples
_AUDIO_BINS = (6, 18, 31, 44)    # band-center rfft bins at flen=100


def _fixture_bits(e: int, fam: int, count: int = 64,
                  sub: int = 0) -> np.ndarray:
    """``count`` raw bits for content id ``e``: bit i = mix64(key)&1
    with key = ((e*32 + sub)*64 + i)*8 + fam (sub = video frame idx,
    0 for images)."""
    from ..ops.bucketing import mix64
    i = np.arange(count, dtype=np.uint64)
    key = ((np.uint64(e) * np.uint64(32) + np.uint64(sub))
           * np.uint64(64) + i) * np.uint64(8) + np.uint64(fam)
    return (mix64([key]) & np.uint64(1)).astype(bool)


def _fixture_image_bits(doc_id: int) -> np.ndarray:
    dup = (doc_id // 3) % DUP_EVERY == 1 and doc_id >= 3
    e = doc_id - 3 if dup else doc_id
    bits = _fixture_bits(e, FAM_IMG_BITS)
    if dup:
        from ..ops.bucketing import mix64
        j = np.arange(3, dtype=np.uint64)
        key = (np.uint64(doc_id) * np.uint64(8) + j) * np.uint64(8) \
            + np.uint64(FAM_IMG_FLIPS)
        for p in (mix64([key]) % np.uint64(64)).astype(int):
            bits[p] = ~bits[p]
    return bits


def _fixture_image_payload(doc_id: int) -> bytes:
    v = np.where(_fixture_image_bits(doc_id), 224, 32).astype(np.uint8)
    return encode_bmp(np.repeat(v, 3).reshape(8, 8, 3))


def _fixture_audio_grid(doc_id: int) -> np.ndarray:
    """(16 frames, 4 bands) bool grid: per band exactly 8 high frames
    = the 8 smallest (mix64(key), frame) pairs; near-dup docs swap the
    rank-8 and rank-9 frames in bands 0 and 2."""
    from ..ops.bucketing import mix64
    dup = (doc_id // 3) % DUP_EVERY == 1 and doc_id >= 3
    e = doc_id - 3 if dup else doc_id
    grid = np.zeros((AUDIO_FP_FRAMES, AUDIO_FP_BANDS), dtype=bool)
    for b in range(AUDIO_FP_BANDS):
        f = np.arange(AUDIO_FP_FRAMES, dtype=np.uint64)
        key = (np.uint64(e) * np.uint64(64) + np.uint64(b)
               * np.uint64(16) + f) * np.uint64(8) \
            + np.uint64(FAM_AUDIO_RANK)
        r = mix64([key])
        order = np.lexsort((np.arange(AUDIO_FP_FRAMES), r))
        hi = order[:8].copy()
        if dup and b in (0, 2):
            hi[7] = order[8]       # rank-8 out, rank-9 in: 2 bit flips
        grid[hi, b] = True
    return grid


def _fixture_audio_payload(doc_id: int) -> bytes:
    grid = _fixture_audio_grid(doc_id)
    flen = AUDIO_FIXTURE_SAMPLES // AUDIO_FP_FRAMES
    n = np.arange(flen)
    x = np.zeros(AUDIO_FIXTURE_SAMPLES)
    for f in range(AUDIO_FP_FRAMES):
        for b in range(AUDIO_FP_BANDS):
            if grid[f, b]:
                x[f * flen:(f + 1) * flen] += 8000.0 * np.sin(
                    2 * np.pi * _AUDIO_BINS[b] * n / flen)
    return encode_wav(np.round(x).astype(np.int16))


def _fixture_video_payload(doc_id: int) -> bytes:
    from ..ops.bucketing import mix64
    dup = (doc_id // 3) % DUP_EVERY == 1 and doc_id >= 3
    e = doc_id - 3 if dup else doc_id
    nf = 8 + int(mix64([np.array([doc_id * 8 + FAM_VIDEO_COUNT],
                                 np.uint64)])[0] % np.uint64(8))
    frames = np.empty((nf, 8, 8, 3), np.uint8)
    for fi in range(nf):
        v = np.where(_fixture_bits(e, FAM_VIDEO_BITS, sub=fi), 224, 32) \
            .astype(np.uint8)
        frames[fi] = np.repeat(v, 3).reshape(8, 8, 3)
    return encode_rawv(frames)


def synthetic_media(sf_dir: str):
    """The deterministic driver-checkable media table: one payload per
    document row, media_type = doc_id % 3 (0 image BMP, 1 audio WAV,
    2 video RAWV). Payload generation is per-row Python (fixture
    encode, not a hot path); decode and everything downstream runs the
    real vectorized stages."""
    import ray.data

    def gen(batch: pa.Table) -> pa.Table:
        ids = [int(x) for x in batch.column("doc_id").to_pylist()]
        payloads, types = [], []
        for d in ids:
            kind = d % 3
            if kind == 0:
                payloads.append(_fixture_image_payload(d))
                types.append("image")
            elif kind == 1:
                payloads.append(_fixture_audio_payload(d))
                types.append("audio")
            else:
                payloads.append(_fixture_video_payload(d))
                types.append("video")
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "media_type": pa.array(types, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "source": pa.array(["synth"] * len(ids), pa.string()),
        }).cast(MEDIA_SCHEMA)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"])
    return ds.map_batches(gen, batch_format="pyarrow",
                          batch_size=MEDIA_BATCH_SIZE)


def media_phash_pairs_q(sf_dir: str):
    """Driver query: image near-dup pairs over the synthetic fixture."""
    return media_phash_pairs(synthetic_media(sf_dir))


def media_audio_fp_pairs_q(sf_dir: str):
    """Driver query: audio near-dup pairs over the synthetic fixture."""
    return media_audio_fp_pairs(synthetic_media(sf_dir))


def media_video_near_dup_q(sf_dir: str):
    """Driver query: video frame-set near-dup pairs over the fixture."""
    return video_near_dup_pairs(synthetic_media(sf_dir))


def media_phash_pairs(media_ds, hamming_t: int = AHASH_HAMMING_T):
    """(media_a, media_b, hamming) for image pairs whose aHashes are
    within ``hamming_t`` bits. media_ds: MEDIA_SCHEMA-shaped Dataset;
    payloads decode once in the task stage, then only
    (media_id, ahash) rows cross the band exchanges."""
    rows = media_ds.map_batches(image_hashes, batch_size=MEDIA_BATCH_SIZE,
                                batch_format="pyarrow")
    return hash64_band_pairs(rows, hamming_t)


# ---------------------------------------------------------------------------
# Audio near-duplicate fingerprint (the WAV twin of the image aHash):
# 16 equal frames × 4 FFT band energies -> 64 bits, each bit = that
# band's energy above its median across frames. Median thresholding
# makes the fingerprint gain-invariant (scaling the signal scales the
# medians); small additive noise flips few bits. Same banded pair
# machinery (hash64_band_pairs) downstream.
# ---------------------------------------------------------------------------

AUDIO_FP_FRAMES = 16
AUDIO_FP_BANDS = 4


def audio_fingerprint(samples: np.ndarray) -> int:
    """1-D float PCM -> 64-bit spectral fingerprint."""
    x = np.asarray(samples, np.float64)
    if len(x) < AUDIO_FP_FRAMES:
        x = np.pad(x, (0, AUDIO_FP_FRAMES - len(x)))
    flen = len(x) // AUDIO_FP_FRAMES
    frames = x[: flen * AUDIO_FP_FRAMES].reshape(AUDIO_FP_FRAMES, flen)
    spec = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    nb = spec.shape[1]
    edges = (np.arange(AUDIO_FP_BANDS + 1) * nb) // AUDIO_FP_BANDS
    bands = np.add.reduceat(spec, edges[:-1], axis=1)
    med = np.median(bands, axis=0, keepdims=True)
    bits = (bands > med).reshape(-1)
    return int(np.packbits(bits.astype(np.uint8)).view(">u8")[0])


def audio_hashes(batch: pa.Table) -> pa.Table:
    """Task stage: decode WAV payloads, emit (media_id, ahash);
    non-audio/undecodable rows are dropped."""
    out_id, out_h = [], []
    for mid, p in zip(batch.column("media_id").to_pylist(),
                      batch.column("payload").to_pylist()):
        p = p or b""
        if not (p[:4] == b"RIFF" and p[8:12] == b"WAVE"):
            continue
        try:
            _rate, _n, x = _wav_samples(p)
        except (ValueError, EOFError, struct.error, wave.Error):
            continue
        out_id.append(mid)
        out_h.append(audio_fingerprint(x))
    return _hash_rows(out_id, out_h)


def media_audio_fp_pairs(media_ds, hamming_t: int = AHASH_HAMMING_T):
    """(media_a, media_b, hamming) for audio pairs whose spectral
    fingerprints are within ``hamming_t`` bits."""
    rows = media_ds.map_batches(audio_hashes, batch_size=MEDIA_BATCH_SIZE,
                                batch_format="pyarrow")
    return hash64_band_pairs(rows, hamming_t)


# ---------------------------------------------------------------------------
# Video: a raw container ("RAWV": magic + w/h/n_frames/fps header +
# concatenated RGB frames) decodable with numpy alone, so the
# frame-sample stage is REAL end to end — the compressed-codec seam
# (MP4/H.264, no ffmpeg in this env) stays at the decode_media
# boundary exactly like JPEG/MP3. Frame sampling emits one row per
# every-k-th frame with true per-frame stats + aHash; video near-dup
# pairs videos sharing enough sampled-frame hashes (the shingle-pair
# machinery keyed by frame hash — only (hash, id) rows shuffle,
# never pixels).
# ---------------------------------------------------------------------------

RAWV_MAGIC = b"RAWV"
FRAME_SAMPLE_EVERY = 5

FRAME_SCHEMA = pa.schema([
    ("media_id", pa.int64()), ("frame_idx", pa.int64()),
    ("width", pa.int32()), ("height", pa.int32()),
    ("mean_luma", pa.float32()), ("ahash", pa.uint64()),
])


def encode_rawv(frames: np.ndarray, fps: int = 10) -> bytes:
    """(n, h, w, 3) uint8 RGB -> RAWV container bytes."""
    n, h, w, _ = frames.shape
    hdr = RAWV_MAGIC + struct.pack("<IIII", w, h, n, fps)
    return hdr + frames.tobytes()


def _rawv_frames(payload: bytes) -> tuple[np.ndarray, int]:
    if payload[:4] != RAWV_MAGIC:
        raise ValueError("not a RAWV payload")
    w, h, n, fps = struct.unpack_from("<IIII", payload, 4)
    data = np.frombuffer(payload, np.uint8, count=n * h * w * 3,
                         offset=20).reshape(n, h, w, 3)
    return data, fps


def sample_frames(batch: pa.Table,
                  every_k: int = FRAME_SAMPLE_EVERY) -> pa.Table:
    """Task-stage frame sampler: every ``every_k``-th frame of each RAWV
    video -> (media_id, frame_idx, width, height, mean_luma, ahash).
    A real build swaps the container parser for an ffmpeg/PyAV reader —
    the emitted row contract is the point."""
    rows = []
    for mid, p in zip(batch.column("media_id").to_pylist(),
                      batch.column("payload").to_pylist()):
        p = p or b""
        if p[:4] != RAWV_MAGIC:
            continue
        try:
            frames, _fps = _rawv_frames(p)
        except (ValueError, struct.error):
            continue
        for fi in range(0, len(frames), every_k):
            f = frames[fi]
            rows.append({
                "media_id": mid, "frame_idx": fi,
                "width": f.shape[1], "height": f.shape[0],
                "mean_luma": float(
                    (f.astype(np.float64) @ _LUMA).mean() / 255.0),
                "ahash": average_hash(f),
            })
    if not rows:
        return FRAME_SCHEMA.empty_table()
    return pa.Table.from_pylist(rows, schema=FRAME_SCHEMA)


def frame_sample(media_ds, every_k: int = FRAME_SAMPLE_EVERY):
    """Sampled-frame feature table for every RAWV video payload
    (small batches — raw frames are the biggest payloads this module
    handles)."""
    return media_ds.map_batches(
        sample_frames, fn_kwargs={"every_k": every_k},
        batch_format="pyarrow", batch_size=MEDIA_BATCH_SIZE)


def video_near_dup_pairs(media_ds, every_k: int = FRAME_SAMPLE_EVERY,
                         min_shared: int = 2):
    """(media_a, media_b, n_shared) for video pairs sharing >=
    ``min_shared`` distinct sampled-frame aHashes — frame-set overlap
    as the near-dup signal (re-encodes and frame noise keep aHashes;
    different footage does not). Pixels never shuffle: the pair search
    runs on (ahash, media_id) rows through the same shingle-bucket ->
    pair-bucket exchanges as the text dedup family."""
    from ..ops.bucketing import bucket_groupby, hash_bucket
    from ..ops.dedup import segment_pair_indices

    def rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("media_id").to_numpy(zero_copy_only=False)
        h = batch.column("ahash").to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        # distinct (video, frame-hash) pairs
        key = np.stack([ids.astype(np.int64),
                        h.astype(np.int64)], axis=1)
        _, first = np.unique(key, axis=0, return_index=True)
        ids, h = ids[first], h[first]
        return pa.table({
            "shingle": pa.array(h, pa.uint64()),
            "media_id": pa.array(ids, pa.int64()),
            "bucket": pa.array(hash_bucket([h]), pa.int32()),
        })

    def pairs(group: pa.Table) -> pa.Table:
        sh = group.column("shingle").to_numpy(zero_copy_only=False)
        ids = group.column("media_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, sh))
        sh, ids = sh[order], ids[order]
        ia, ib = segment_pair_indices([sh])
        if len(ia) == 0:
            return pa.table({
                "media_a": pa.array([], pa.int64()),
                "media_b": pa.array([], pa.int64()),
                "n_shared": pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int32())})
        a = np.minimum(ids[ia], ids[ib])
        b = np.maximum(ids[ia], ids[ib])
        t = pa.table({
            "media_a": pa.array(a, pa.int64()),
            "media_b": pa.array(b, pa.int64()),
            "n_shared": pa.array(np.ones(len(a), np.int64)),
        })
        g = t.group_by(["media_a", "media_b"]).aggregate(
            [("n_shared", "sum")])
        g = g.rename_columns(["media_a", "media_b", "n_shared"])
        return g.append_column("bucket", pa.array(
            hash_bucket([g.column("media_a"), g.column("media_b")]),
            pa.int32()))

    def final(group: pa.Table) -> pa.Table:
        g = group.group_by(["media_a", "media_b"]).aggregate(
            [("n_shared", "sum")])
        g = g.rename_columns(["media_a", "media_b", "n_shared"])
        import pyarrow.compute as pc
        return g.filter(pc.greater_equal(g.column("n_shared"),
                                         min_shared))

    fr = frame_sample(media_ds, every_k)
    banded = fr.map_batches(rows, batch_format="pyarrow",
                            batch_size=None)
    return bucket_groupby(bucket_groupby(banded, pairs), final)


# ---------------------------------------------------------------------------
# Shot-boundary detection (video segmentation)
# ---------------------------------------------------------------------------
#
# The classic pixel-delta cut detector: a frame starts a new shot when
# its per-pixel distance to the previous frame exceeds a threshold.
# On the two-value fixture frames the distance is integer-exact
# (hamming of the 64 pixel bits x 192 gray levels), so the contract is
# (media_id, frame_idx, delta_bits >= SHOT_HAMMING_T) — byte-identical
# frames inside a shot give delta 0, independent shots expect ~32 of
# 64 bits. A real build swaps the RAWV parser for ffmpeg/PyAV and the
# bit-delta for a block-histogram distance in the SAME stage shape.
#
# The shot fixture (synthetic_shot_video) is a separate payload family
# from the near-dup fixture: frames come in runs (shots) of
# 3..5 byte-identical frames, shot content keyed by
# (doc_id, shot_idx, FAM_SHOT_BITS) through the shared mix64 chain —
# so the DuckDB twin reproduces every boundary and its exact bit delta
# without decoding (the same integer-stream philosophy as the aHash /
# audio-fingerprint twins above).

FAM_SHOT_BITS = 5
FAM_SHOT_COUNT = 6
FAM_SHOT_LEN = 7
SHOT_HAMMING_T = 16
SHOT_MIN_FRAMES = 12


def _fixture_shot_video_payload(doc_id: int) -> bytes:
    from ..ops.bucketing import mix64
    nf = SHOT_MIN_FRAMES + int(mix64(
        [np.array([doc_id * 8 + FAM_SHOT_COUNT], np.uint64)])[0]
        % np.uint64(5))
    run = 3 + int(mix64(
        [np.array([doc_id * 8 + FAM_SHOT_LEN], np.uint64)])[0]
        % np.uint64(3))
    frames = np.empty((nf, 8, 8, 3), np.uint8)
    for fi in range(nf):
        v = np.where(
            _fixture_bits(doc_id, FAM_SHOT_BITS, sub=fi // run),
            224, 32).astype(np.uint8)
        frames[fi] = np.repeat(v, 3).reshape(8, 8, 3)
    return encode_rawv(frames)


def synthetic_shot_video(sf_dir: str):
    """One shot-structured RAWV payload per document row."""
    import ray.data

    def gen(batch: pa.Table) -> pa.Table:
        ids = [int(x) for x in batch.column("doc_id").to_pylist()]
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "media_type": pa.array(["video"] * len(ids), pa.string()),
            "payload": pa.array(
                [_fixture_shot_video_payload(d) for d in ids],
                pa.binary()),
            "source": pa.array(["synth"] * len(ids), pa.string()),
        }).cast(MEDIA_SCHEMA)

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"]) \
        .map_batches(gen, batch_format="pyarrow",
                     batch_size=MEDIA_BATCH_SIZE)


def shot_cuts(batch: pa.Table, hamming_t: int = SHOT_HAMMING_T) -> pa.Table:
    """Task stage: decode RAWV payloads, threshold the per-frame
    binarized pixel delta -> (media_id, frame_idx, delta_bits) rows,
    one per detected cut. Non-video/undecodable rows are dropped."""
    out_id, out_fi, out_d = [], [], []
    for mid, p in zip(batch.column("media_id").to_pylist(),
                      batch.column("payload").to_pylist()):
        p = p or b""
        if p[:4] != RAWV_MAGIC:
            continue
        try:
            frames, _fps = _rawv_frames(p)
        except (ValueError, struct.error):
            continue
        # binarize on the green channel (two-value frames make the
        # cut margin exact; a real detector uses a histogram here)
        bits = frames[:, :, :, 1].reshape(len(frames), -1) > 128
        if len(bits) < 2:
            continue
        delta = np.sum(bits[1:] != bits[:-1], axis=1)
        hit = np.nonzero(delta >= hamming_t)[0]
        out_id.extend([mid] * len(hit))
        out_fi.extend((hit + 1).tolist())
        out_d.extend(delta[hit].tolist())
    return pa.table({
        "media_id": pa.array(out_id, pa.int64()),
        "frame_idx": pa.array(out_fi, pa.int64()),
        "delta_bits": pa.array(out_d, pa.int64()),
    })


def media_shot_boundaries(media_ds, hamming_t: int = SHOT_HAMMING_T):
    return media_ds.map_batches(
        shot_cuts, fn_kwargs={"hamming_t": hamming_t},
        batch_size=MEDIA_BATCH_SIZE, batch_format="pyarrow")


def media_shot_boundaries_q(sf_dir: str):
    """Driver query: shot cuts over the shot-structured fixture."""
    return media_shot_boundaries(synthetic_shot_video(sf_dir))
