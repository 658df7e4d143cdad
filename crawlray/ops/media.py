"""Multimodal column plumbing (task brief: image/audio/video as opaque
binary columns with typed metadata; decode / feature-extract as actor-pool
map_batches stages).

The decode stage does REAL header decoding for PNG / GIF / JPEG payloads
(`parse_image_header` — pure stdlib, dimensions read from fixed header
fields, tested end-to-end on real bytes through the actor pool). Payloads
with no recognised image signature fall back to a clearly-marked
deterministic stub (`_decode_stub`) — full pixel decode needs codec
libraries this container lacks. The Ray-side plumbing is real throughout:
a `binary` payload column flows through the object store, a stateful
actor-pool stage ("codec loaded once per actor" in __init__) decodes per
batch, and typed metadata columns come out. Swapping the fallback for
PIL/ffmpeg is a one-function change.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import ray.data


def attach_binary_payload(
    ds: ray.data.Dataset, id_col: str, text_col: str
) -> ray.data.Dataset:
    """Derive an opaque binary payload column (media_bytes) + mime tag.

    Stand-in for reading real media blobs: deterministic bytes from the text
    column so the downstream plumbing is content-addressable and testable.
    """

    def _bin(batch: pa.Table) -> pa.Table:
        payloads = [(t or "").encode("utf-8") for t in batch.column(text_col).to_pylist()]
        return pa.table(
            {
                id_col: batch.column(id_col),
                "media_bytes": pa.array(payloads, pa.binary()),
                "mime": pa.array(["application/x-fake-image"] * batch.num_rows),
            }
        )

    return ds.map_batches(_bin, batch_format="pyarrow")


def parse_image_header(payload: bytes) -> tuple[int, int, str] | None:
    """REAL pure-stdlib image-header decode for PNG / GIF / JPEG.

    Returns (width, height, format) when the payload carries a recognised
    image signature, None otherwise (caller falls back to the stub). No
    codec library needed — dimensions live in fixed header fields:
      * PNG:  8-byte signature, then the IHDR chunk's big-endian
        width/height at byte offsets 16/20 (PNG spec §11.2.2);
      * GIF:  'GIF87a'/'GIF89a', then the logical-screen descriptor's
        little-endian uint16 width/height at offsets 6/8;
      * JPEG: FFD8 SOI, then a marker walk to the first SOF segment
        (FFC0..FFCF except C4/C8/CC) holding big-endian height/width.
    PNG (0x89) and JPEG (0xFF) first bytes are invalid UTF-8 lead bytes, so
    text-derived payloads can never false-positive; GIF's ASCII magic is a
    full 6-byte match (verified absent from every testdata corpus).
    """
    import struct

    n = len(payload)
    if n >= 24 and payload[:8] == b"\x89PNG\r\n\x1a\n":
        w, h = struct.unpack_from(">II", payload, 16)
        return w, h, "png"
    if n >= 10 and payload[:6] in (b"GIF87a", b"GIF89a"):
        w, h = struct.unpack_from("<HH", payload, 6)
        return w, h, "gif"
    if n >= 4 and payload[:2] == b"\xff\xd8":
        i = 2
        while i + 4 <= n:
            if payload[i] != 0xFF:
                return None  # corrupt marker stream
            marker = payload[i + 1]
            if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
                i += 2  # standalone markers carry no length
                continue
            (seg_len,) = struct.unpack_from(">H", payload, i + 2)
            if 0xC0 <= marker <= 0xCF and marker not in (0xC4, 0xC8, 0xCC):
                if i + 9 <= n:
                    h, w = struct.unpack_from(">HH", payload, i + 5)
                    return w, h, "jpeg"
                return None
            i += 2 + seg_len
        return None
    return None


def parse_audio_header(payload: bytes) -> tuple[int, int, int, str] | None:
    """REAL pure-stdlib audio-header decode for WAV (RIFF) payloads.

    Returns (sample_rate, channels, n_frames, 'wav') when the payload is a
    RIFF/WAVE container, else None. Walks the chunk list for 'fmt '
    (PCM layout at fixed offsets: channels u16 @+2, sample_rate u32 @+4,
    block_align u16 @+12) and 'data' (n_frames = chunk size / block_align).
    No codec library needed — these live in fixed header fields.
    """
    import struct

    n = len(payload)
    if n < 12 or payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        return None
    i = 12
    rate = channels = block_align = None
    n_frames = None
    while i + 8 <= n:
        tag = payload[i : i + 4]
        (size,) = struct.unpack_from("<I", payload, i + 4)
        if tag == b"fmt " and i + 8 + 16 <= n:
            channels, rate = struct.unpack_from("<HI", payload, i + 10)
            (block_align,) = struct.unpack_from("<H", payload, i + 20)
        elif tag == b"data" and block_align:
            n_frames = size // max(1, block_align)
        i += 8 + size + (size & 1)  # chunks are word-aligned
    if rate and channels:
        return rate, channels, int(n_frames or 0), "wav"
    return None


def _decode_stub(payload: bytes) -> tuple[int, int, int]:
    """STUB decode — deterministic fake (width, height, checksum).

    Fallback for payloads with no recognised image signature (e.g. the
    text-derived stand-in payloads): output is a pure function of the
    payload bytes so the stage's contract stays testable. Recognised
    PNG/GIF/JPEG bytes never reach this — `parse_image_header` handles
    them with REAL dimensions.
    """
    n = len(payload)
    return n % 640, n % 480, zlib.crc32(payload)


class MediaDecodeStage:
    """Actor-pool decode stage: 'codec' initialised once per actor
    (__init__), vectorized-ish decode per batch (__call__). Use with
    `ds.map_batches(MediaDecodeStage, concurrency=N, batch_size=B)` —
    small batches for large payloads (SURVEY.md memory-aware note)."""

    def __init__(self):
        # real header parser (PNG/GIF/JPEG) + stub fallback, both bound
        # once per actor; a heavyweight codec handle would load here too
        self.parse_header = parse_image_header
        self.fallback = _decode_stub

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, checksums, formats, sizes = [], [], [], [], []
        for payload in batch.column("media_bytes").to_pylist():
            payload = payload or b""
            parsed = self.parse_header(payload)
            if parsed is not None:
                w, h, fmt = parsed
                c = zlib.crc32(payload)
            else:
                w, h, c = self.fallback(payload)
                fmt = "raw"
            widths.append(w)
            heights.append(h)
            checksums.append(c)
            formats.append(fmt)
            sizes.append(len(payload))
        cols = {n: batch.column(n) for n in batch.column_names if n != "media_bytes"}
        cols.update(
            {
                "n_bytes": pa.array(sizes, pa.int64()),
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
                "checksum": pa.array(np.array(checksums, np.uint32), pa.uint32()),
                "format": pa.array(formats, pa.string()),
            }
        )
        return pa.table(cols)


class AudioDecodeStage:
    """Actor-pool audio metadata decode: REAL WAV header parse
    (`parse_audio_header`) with a deterministic stub for non-audio
    payloads. Same plumbing contract as MediaDecodeStage: binary column
    in, typed metadata out, parser bound once per actor."""

    def __init__(self):
        self.parse_header = parse_audio_header

    def __call__(self, batch: pa.Table) -> pa.Table:
        rates, chans, frames, durs, fmts = [], [], [], [], []
        for payload in batch.column("media_bytes").to_pylist():
            payload = payload or b""
            parsed = self.parse_header(payload)
            if parsed is not None:
                rate, ch, nf, fmt = parsed
            else:
                # stub: deterministic fake metadata from the byte length
                n = len(payload)
                rate, ch, nf, fmt = 8000 + n % 8000, n % 2 + 1, n, "raw"
            rates.append(rate)
            chans.append(ch)
            frames.append(nf)
            durs.append(nf / rate if rate else 0.0)
            fmts.append(fmt)
        cols = {n: batch.column(n) for n in batch.column_names if n != "media_bytes"}
        cols.update(
            {
                "sample_rate": pa.array(rates, pa.int32()),
                "channels": pa.array(chans, pa.int32()),
                "n_frames": pa.array(frames, pa.int64()),
                "duration_s": pa.array(np.round(durs, 6), pa.float64()),
                "format": pa.array(fmts, pa.string()),
            }
        )
        return pa.table(cols)


class MediaResizeStage:
    """Actor-pool resize stage (stub kernel, real plumbing).

    Contract (pure integer arithmetic so the stage is oracle-checkable):
    images larger than `max_dim` on their longer side scale down to fit,
    preserving aspect ratio with floor division —
        scale applies iff max(width, height) > max_dim
        out_w = width  * max_dim // max(width, height)
        out_h = height * max_dim // max(width, height)
    A real deployment swaps the arithmetic for PIL `Image.resize` and
    re-encodes the payload; here the payload passes through untouched.
    Vectorized over the batch (numpy) — no per-row Python loop."""

    def __init__(self, max_dim: int = 256):
        self.max_dim = max_dim  # real codec/resampler handle would load here

    def __call__(self, batch: pa.Table) -> pa.Table:
        w = batch.column("width").to_numpy().astype(np.int64)
        h = batch.column("height").to_numpy().astype(np.int64)
        longer = np.maximum(np.maximum(w, h), 1)
        need = longer > self.max_dim
        out_w = np.where(need, w * self.max_dim // longer, w)
        out_h = np.where(need, h * self.max_dim // longer, h)
        cols = {n: batch.column(n) for n in batch.column_names}
        cols["out_width"] = pa.array(out_w.astype(np.int32), pa.int32())
        cols["out_height"] = pa.array(out_h.astype(np.int32), pa.int32())
        return pa.table(cols)


class MediaFrameSampleStage:
    """Actor-pool frame-sampling stage for video-like payloads (stub).

    Contract: a payload of n_bytes holds `n_frames = n_bytes % 7 + 1`
    fake frames; every `stride`-th frame is emitted as its own ROW
    (doc explodes into frames — the output layout a real frame sampler
    produces), with `frame_off = frame_idx * (n_bytes // n_frames)` as the
    byte offset a real demuxer would seek to. Pure integer arithmetic →
    DuckDB-oracle-checkable; a real deployment swaps in ffmpeg seek+decode.
    """

    def __init__(self, stride: int = 2):
        self.stride = stride  # real demuxer handle would load here

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n_bytes = batch.column("n_bytes").to_numpy().astype(np.int64)
        n_frames = n_bytes % 7 + 1
        counts = -(-n_frames // self.stride)  # frames sampled per doc
        rep_ids = np.repeat(ids, counts)
        rep_nb = np.repeat(n_bytes, counts)
        rep_nf = np.repeat(n_frames, counts)
        # frame_idx = stride * (rank within doc): global arange minus each
        # row's group start, vectorized
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        frame_idx = (np.arange(len(rep_ids)) - starts) * self.stride
        frame_off = frame_idx * (rep_nb // rep_nf)
        return pa.table(
            {
                "doc_id": pa.array(rep_ids),
                "frame_idx": pa.array(frame_idx, pa.int32()),
                "frame_off": pa.array(frame_off, pa.int64()),
            }
        )


class MediaProfileStage:
    """Fused multimodal profile: image decode + resize contract + audio
    metadata + frame-sample AGGREGATE in ONE actor-pool pass, one output
    row per document.

    Every column is a pure per-doc function of the payload bytes, so the
    four kernels compose with no join and no shuffle — the shape a 100 TB
    corpus profile should take (the three-branch + two-shuffle_join
    composition this replaces deadlocked Ray's resource scheduler on small
    clusters and moved every metadata row through two exchanges for no
    semantic gain). The standalone stages above remain the operator
    surface for callers that need exploded frames or payload passthrough.

    Output columns: (id, n_bytes, width, height, out_width, out_height,
    sample_rate, channels, n_frames, duration_s, n_sampled_frames,
    sum_frame_off).
    """

    def __init__(self, max_dim: int = 256, stride: int = 2):
        # header parsers bound once per actor (a real codec/resampler/
        # demuxer handle would load here)
        self.parse_image = parse_image_header
        self.parse_audio = parse_audio_header
        self.max_dim = max_dim
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = [p or b"" for p in batch.column("media_bytes").to_pylist()]
        n = np.array([len(p) for p in payloads], np.int64)
        # image decode: REAL header parse when magic bytes match, else the
        # deterministic stub (n % 640, n % 480)
        w = (n % 640).astype(np.int64)
        h = (n % 480).astype(np.int64)
        rate = (8000 + n % 8000).astype(np.int64)
        chans = (n % 2 + 1).astype(np.int64)
        aframes = n.copy()
        for i, p in enumerate(payloads):
            img = self.parse_image(p)
            if img is not None:
                w[i], h[i] = img[0], img[1]
            au = self.parse_audio(p)
            if au is not None:
                rate[i], chans[i], aframes[i] = au[0], au[1], au[2]
        # resize contract (vectorized): fit-to-max_dim, floor division
        longer = np.maximum(np.maximum(w, h), 1)
        need = longer > self.max_dim
        out_w = np.where(need, w * self.max_dim // longer, w)
        out_h = np.where(need, h * self.max_dim // longer, h)
        # frame-sample aggregate, closed form (no explode needed when the
        # consumer wants the per-doc rollup): nf fake frames, every
        # stride-th sampled; offsets are an arithmetic series
        nf = n % 7 + 1
        cnt = -(-nf // self.stride)
        sum_off = (n // nf) * self.stride * (cnt * (cnt - 1) // 2)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_bytes": pa.array(n, pa.int64()),
                "width": pa.array(w.astype(np.int32), pa.int32()),
                "height": pa.array(h.astype(np.int32), pa.int32()),
                "out_width": pa.array(out_w.astype(np.int32), pa.int32()),
                "out_height": pa.array(out_h.astype(np.int32), pa.int32()),
                "sample_rate": pa.array(rate.astype(np.int32), pa.int32()),
                "channels": pa.array(chans.astype(np.int32), pa.int32()),
                "n_frames": pa.array(aframes, pa.int64()),
                "duration_s": pa.array(
                    np.round(aframes / np.maximum(rate, 1), 6), pa.float64()
                ),
                "n_sampled_frames": pa.array(cnt, pa.int64()),
                "sum_frame_off": pa.array(sum_off, pa.int64()),
            }
        )


def media_profile(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str,
    max_dim: int = 256,
    stride: int = 2,
    concurrency: int = 2,
) -> ray.data.Dataset:
    """attach payload → ONE fused actor-pool profile pass (no joins)."""
    withbin = attach_binary_payload(ds, id_col, text_col)
    return withbin.map_batches(
        MediaProfileStage,
        batch_format="pyarrow",
        batch_size=64,  # small batches: binary payloads dominate memory
        concurrency=concurrency,
        num_cpus=0.5,
        fn_constructor_kwargs={"max_dim": max_dim, "stride": stride},
    )
