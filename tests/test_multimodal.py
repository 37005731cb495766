"""Pure-Python image codec + the media feature pipeline's real decode
path."""

from __future__ import annotations

import numpy as np
import pytest


def test_png_roundtrip_rgb():
    from ray_script_extract.functions.imagecodec import (
        decode_image,
        encode_png,
    )

    rng = np.random.default_rng(3)
    arr = rng.integers(0, 256, size=(13, 7, 3), dtype=np.uint8)
    assert np.array_equal(decode_image(encode_png(arr)), arr)


def test_png_roundtrip_gray_and_rgba():
    from ray_script_extract.functions.imagecodec import (
        decode_image,
        encode_png,
    )

    rng = np.random.default_rng(4)
    gray = rng.integers(0, 256, size=(5, 9), dtype=np.uint8)
    out = decode_image(encode_png(gray))
    assert out.shape == (5, 9, 1)
    assert np.array_equal(out[:, :, 0], gray)
    rgba = rng.integers(0, 256, size=(4, 4, 4), dtype=np.uint8)
    assert np.array_equal(decode_image(encode_png(rgba)), rgba)


def test_ppm_decode():
    from ray_script_extract.functions.imagecodec import decode_image

    arr = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    payload = b"P6\n# comment\n3 2\n255\n" + arr.tobytes()
    assert np.array_equal(decode_image(payload), arr)


def test_unsupported_format_raises():
    from ray_script_extract.functions.imagecodec import decode_image

    with pytest.raises(ValueError):
        decode_image(b"GIF89a....")


def test_feature_is_function_of_pixels():
    from ray_script_extract.functions.imagecodec import (
        encode_png,
        image_stats_feature,
    )
    from ray_script_extract.pipelines.multimodal import (
        FEATURE_DIM,
        decode_image_real,
    )

    a = np.zeros((8, 8, 3), np.uint8)
    b = np.full((8, 8, 3), 200, np.uint8)
    fa = image_stats_feature(decode_image_real(encode_png(a)), FEATURE_DIM)
    fb = image_stats_feature(decode_image_real(encode_png(b)), FEATURE_DIM)
    assert fa.shape == (FEATURE_DIM,)
    assert not np.allclose(fa, fb)
    # deterministic
    fa2 = image_stats_feature(decode_image_real(encode_png(a)), FEATURE_DIM)
    assert np.array_equal(fa, fa2)


@pytest.mark.usefixtures("ray_session")
def test_media_pipeline_decodes_real_payloads():
    """The media table now carries real PNG payloads and the actor
    stage decodes them (fallback would also give 32-dim rows, so the
    decode path itself is asserted via a direct payload check)."""
    from ray_script_extract.functions.imagecodec import decode_image
    from ray_script_extract.pipelines.multimodal import (
        media_features,
        media_refs_from_documents,
    )

    media = media_refs_from_documents("/root/testdata/sf0.001")
    row = next(r for r in media.take(8)
               if r["media_type"] == "image")
    arr = decode_image(row["payload"])
    assert arr.shape == (8, 8, 3)

    out = media_features("/root/testdata/sf0.001").to_pandas()
    assert len(out) > 0
    assert (out["feature_dim"] == 32).all()


def test_wav_roundtrip_mono_stereo():
    from ray_script_extract.functions.audiocodec import (
        decode_wav,
        encode_wav,
    )

    rng = np.random.default_rng(5)
    mono = rng.integers(-32768, 32767, size=100, dtype=np.int16)
    out, rate = decode_wav(encode_wav(mono, rate=8000))
    assert rate == 8000
    assert np.array_equal(out, mono)
    stereo = rng.integers(-32768, 32767, size=(50, 2), dtype=np.int16)
    out2, _ = decode_wav(encode_wav(stereo, rate=16000))
    assert np.array_equal(out2, stereo)


def test_audio_feature_depends_on_waveform():
    from ray_script_extract.functions.audiocodec import audio_stats_feature

    quiet = np.zeros(256, np.int16)
    loud = (np.sin(np.linspace(0, 60, 256)) * 20000).astype(np.int16)
    fa = audio_stats_feature(quiet, 8000, 32)
    fb = audio_stats_feature(loud, 8000, 32)
    assert fa.shape == fb.shape == (32,)
    assert not np.allclose(fa, fb)


@pytest.mark.usefixtures("ray_session")
def test_media_table_contains_audio_rows():
    from ray_script_extract.functions.audiocodec import decode_wav
    from ray_script_extract.pipelines.multimodal import (
        media_refs_from_documents,
    )

    media = media_refs_from_documents("/root/testdata/sf0.001").to_pandas()
    audio = media[media["media_type"] == "audio"]
    assert len(audio) > 0
    samples, rate = decode_wav(audio.iloc[0]["payload"])
    assert rate == 8000 and len(samples) == 256


def test_scene_analyzer_registry():
    from ray_script_extract.pipelines.analytics import (
        ANALYZER_REGISTRY,
        analyze_scenes,
        register_analyzer,
        split_scenes,
    )

    spans = [
        {"kind": "Scene", "text": "INT. A - DAY"},
        {"kind": "Action", "text": "Something happens."},
        {"kind": "Character", "text": "BOB"},
        {"kind": "Dialogue", "text": "Four words right here."},
        {"kind": "Scene", "text": "INT. B - DAY"},
        {"kind": "Dialogue", "text": "Two words."},
    ]
    assert len(split_scenes(spans)) == 2
    out = analyze_scenes(spans, ["DialogAverages", "ActionVersusDialog"])
    assert out["DialogAverages"] == {"n_speeches": 1, "n_dialog_words": 6}
    assert out["ActionVersusDialog"] == {"n_action": 1, "n_dialogue": 2}

    @register_analyzer("SceneCounter")
    class SceneCounter:
        def __init__(self):
            self.n = 0

        def analyze(self, scene):
            self.n += 1

        def display_analysis(self):
            return {"n_scenes": self.n}

    assert "SceneCounter" in ANALYZER_REGISTRY
    assert analyze_scenes(spans, ["SceneCounter"]) == {
        "SceneCounter": {"n_scenes": 2}}


@pytest.mark.usefixtures("ray_session")
def test_scene_analysis_pipeline():
    from ray_script_extract.pipelines.analytics import scene_analysis

    out = scene_analysis("/root/testdata/sf0.001").to_pandas()
    assert set(out["metric"]) == {
        "ActionVersusDialog.n_action", "ActionVersusDialog.n_dialogue",
        "DialogAverages.n_dialog_words", "DialogAverages.n_speeches"}
    assert (out["total"] > 0).all()


def test_rawv_roundtrip_and_sampling():
    """RAWV container: full decode round-trips; frame_step decodes
    exactly every k-th frame."""
    import numpy as np

    from ray_script_extract.functions.videocodec import (
        decode_rawv,
        encode_rawv,
    )

    frames = [np.full((4, 6, 3), i, np.uint8) for i in range(6)]
    payload = encode_rawv(frames)
    assert [f.mean() for f in decode_rawv(payload)] == [0, 1, 2, 3, 4, 5]
    assert [f.mean() for f in decode_rawv(payload, frame_step=3)] == [0, 3]


def test_resize_nearest_known_values():
    import numpy as np

    from ray_script_extract.functions.imagecodec import resize_nearest

    img = np.arange(8 * 8 * 3, dtype=np.uint8).reshape(8, 8, 3)
    down = resize_nearest(img, 4, 4)
    assert np.array_equal(down, img[::2][:, ::2])
    assert np.array_equal(resize_nearest(img, 8, 8), img)  # identity


@pytest.mark.usefixtures("ray_session")
def test_media_features_includes_video_rows():
    """Video refs flow through the frame-sample leg of the actor."""
    from ray_script_extract.pipelines.multimodal import media_features

    out = media_features("/root/testdata/sf0.001").to_pandas()
    assert out["media_ref"].str.startswith("vid://").any()
    assert (out["feature_dim"] == 32).all()


@pytest.mark.usefixtures("ray_session")
def test_media_thumbnails():
    """Decode → resize → re-encode round trip; thumbnails are
    content-addressed and deterministic."""
    from ray_script_extract.pipelines.multimodal import media_thumbnails

    a = media_thumbnails("/root/testdata/sf0.001").to_pandas()
    assert len(a) > 0
    assert a["thumb_ref"].str.startswith("thumb://sha256/").all()
    assert (a["thumb_bytes"] > 0).all()
    b = media_thumbnails("/root/testdata/sf0.001").to_pandas()
    assert a.values.tolist() == b.values.tolist()


@pytest.mark.usefixtures("ray_session")
def test_near_dup_images_crafted():
    """Perceptual image dedup on a crafted media table: an exact dup
    (hamming 0), a lightly perturbed near-dup (small hamming), and an
    unrelated image that must NOT pair with the base."""
    import pyarrow as pa

    import ray

    from ray_script_extract.functions.imagecodec import encode_png
    from ray_script_extract.pipelines.multimodal import (
        MEDIA_SCHEMA, ahash64, near_dup_images_from_media)

    rng = np.random.default_rng(11)
    base = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
    dup = base.copy()
    near = base.copy()
    near[0, 0] = 255 - near[0, 0]          # tiny perturbation
    other = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
    ham_near = bin(ahash64(base) ^ ahash64(near)).count("1")
    ham_other = bin(ahash64(base) ^ ahash64(other)).count("1")
    assert ham_near <= 3 < ham_other       # the scenario is meaningful

    imgs = {1: base, 2: dup, 3: near, 4: other}
    t = pa.Table.from_arrays([
        pa.array([f"img://crafted/{i}" for i in imgs], pa.string()),
        pa.array([f"doc-{i:08d}" for i in imgs], pa.string()),
        pa.array([encode_png(v) for v in imgs.values()], pa.binary()),
        pa.array(["image"] * len(imgs), pa.string()),
    ], schema=MEDIA_SCHEMA)

    out = near_dup_images_from_media(ray.data.from_arrow(t)).to_pandas()
    got = {(a, b): h for a, b, h in
           zip(out["id_a"], out["id_b"], out["hamming"])}
    assert got[(1, 2)] == 0                # exact dup found
    assert got[(2, 3)] == got[(1, 3)] == ham_near
    assert (1, 4) not in got and (2, 4) not in got and (3, 4) not in got


@pytest.mark.usefixtures("ray_session")
def test_near_dup_audio_crafted():
    """Audio fingerprint dedup: amplitude-rescaled copy (hamming 0 —
    the fingerprint is gain-invariant), a locally edited near-dup, and
    unrelated noise that must not pair."""
    import pyarrow as pa

    import ray

    from ray_script_extract.functions.audiocodec import encode_wav
    from ray_script_extract.pipelines.multimodal import (
        MEDIA_SCHEMA, audiohash64, near_dup_audio_from_media)

    rng = np.random.default_rng(5)
    base = ((rng.random(4000) * 2 - 1) * 10000).astype(np.int16)
    louder = (base.astype(np.float64) * 1.5).clip(-32768, 32767) \
        .astype(np.int16)
    pert = base.copy()
    pert[100:140] = 0
    other = ((rng.random(4000) * 2 - 1) * 10000).astype(np.int16)

    h = {k: audiohash64(v) for k, v in
         (("base", base), ("louder", louder), ("pert", pert),
          ("other", other))}
    ham = lambda a, b: bin(h[a] ^ h[b]).count("1")  # noqa: E731
    assert ham("base", "louder") == 0
    assert 0 < ham("base", "pert") <= 3 < ham("base", "other")

    clips = {1: base, 2: louder, 3: pert, 4: other}
    t = pa.Table.from_arrays([
        pa.array([f"wav://crafted/{i}" for i in clips], pa.string()),
        pa.array([f"doc-{i:08d}" for i in clips], pa.string()),
        pa.array([encode_wav(v, rate=8000) for v in clips.values()],
                 pa.binary()),
        pa.array(["audio"] * len(clips), pa.string()),
    ], schema=MEDIA_SCHEMA)

    out = near_dup_audio_from_media(ray.data.from_arrow(t)).to_pandas()
    got = {(a, b): hm for a, b, hm in
           zip(out["id_a"], out["id_b"], out["hamming"])}
    assert got[(1, 2)] == 0
    assert got[(1, 3)] == ham("base", "pert")
    assert (1, 4) not in got and (2, 4) not in got and (3, 4) not in got


@pytest.mark.usefixtures("ray_session")
def test_near_dup_videos_crafted():
    """Video fingerprint dedup: a byte-identical clip, a lightly
    re-encoded twin (every frame perturbed by one pixel), and an
    unrelated clip."""
    import pyarrow as pa

    import ray

    from ray_script_extract.functions.videocodec import encode_rawv
    from ray_script_extract.pipelines.multimodal import (
        MEDIA_SCHEMA, ahash64, near_dup_videos_from_media, videohash64)

    rng = np.random.default_rng(2)
    frames = [rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
              for _ in range(5)]
    reenc = [f.copy() for f in frames]
    for f in reenc:
        f[0, 0] = 255 - f[0, 0]
    other = [rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
             for _ in range(5)]
    clips = {1: frames, 2: [f.copy() for f in frames], 3: reenc, 4: other}

    h = {k: videohash64(encode_rawv(v)) for k, v in clips.items()}
    ham = lambda a, b: bin(h[a] ^ h[b]).count("1")  # noqa: E731
    assert ham(1, 2) == 0
    assert 0 < ham(1, 3) <= 3 < ham(1, 4)
    # single-frame fold reduces to the image hash
    assert videohash64(encode_rawv(frames[:1])) == ahash64(frames[0])

    t = pa.Table.from_arrays([
        pa.array([f"vid://crafted/{i}" for i in clips], pa.string()),
        pa.array([f"doc-{i:08d}" for i in clips], pa.string()),
        pa.array([encode_rawv(v) for v in clips.values()], pa.binary()),
        pa.array(["video"] * len(clips), pa.string()),
    ], schema=MEDIA_SCHEMA)
    out = near_dup_videos_from_media(ray.data.from_arrow(t)).to_pandas()
    got = {(a, b): hm for a, b, hm in
           zip(out["id_a"], out["id_b"], out["hamming"])}
    assert got[(1, 2)] == 0
    assert got[(1, 3)] == ham(1, 3)
    assert (1, 4) not in got and (2, 4) not in got and (3, 4) not in got


@pytest.mark.usefixtures("ray_session")
def test_extract_once_shared_spans_identical():
    """The extract-once seam: analytics fed a pre-extracted (shared or
    explicit) spans dataset must produce byte-identical results to the
    fresh-extraction path, and scene_stats' Arrow kind counting must
    match a per-row Python recount."""
    from ray_script_extract.pipelines.analytics import (
        character_dialog_counts,
        scene_stats,
    )
    from ray_script_extract.pipelines.flagship import (
        _SHARED_SPANS,
        flagship_extract,
        share_flagship_spans,
    )

    sf = "/root/testdata/sf0.001"
    fresh_scene = scene_stats(sf).to_pandas()
    fresh_chars = character_dialog_counts(sf).to_pandas()

    shared = flagship_extract(sf).materialize()
    share_flagship_spans(sf, shared)
    try:
        assert scene_stats(sf).to_pandas().equals(fresh_scene)
        assert character_dialog_counts(sf).to_pandas().equals(fresh_chars)
        # explicit dataset param beats the share
        assert scene_stats(sf, spans=shared).to_pandas().equals(fresh_scene)
    finally:
        _SHARED_SPANS.clear()

    # vectorized kind counts == naive recount on a sample of docs
    sample = shared.take(20)
    by_doc = {r["doc_id"]: r for _, r in fresh_scene.iterrows()}
    for row in sample:
        want = by_doc[row["doc_id"]]
        spans = row["spans"] or []
        assert want["n_scenes"] == sum(s["kind"] == "Scene" for s in spans)
        assert want["n_dialogue"] == sum(
            s["kind"] == "Dialogue" for s in spans)
        assert want["n_action"] == sum(s["kind"] == "Action" for s in spans)


def test_jpeg_roundtrip_and_psnr():
    """Baseline JPEG codec (T.81): encode→decode round-trips with high
    fidelity on smooth content, grayscale and color, odd sizes."""
    import numpy as np

    from ray_script_extract.functions.imagecodec import decode_image
    from ray_script_extract.functions.jpegcodec import decode_jpeg
    from tests.helpers import encode_jpeg

    img = np.zeros((48, 80, 3), np.uint8)
    img[:, :, 0] = np.linspace(0, 255, 80)[None, :].astype(np.uint8)
    img[:, :, 1] = np.linspace(0, 255, 48)[:, None].astype(np.uint8)
    img[:, :, 2] = 96
    payload = encode_jpeg(img, quality=90)
    assert payload[:3] == b"\xff\xd8\xff"
    dec = decode_jpeg(payload)
    assert dec.shape == (48, 80, 3)
    mse = ((dec.astype(float) - img.astype(float)) ** 2).mean()
    assert 10 * np.log10(255 ** 2 / max(mse, 1e-9)) > 35.0

    # decode_image dispatches on the JPEG magic
    assert decode_image(payload).shape == (48, 80, 3)

    # grayscale + odd dimensions
    g = np.clip(np.linspace(0, 255, 37)[:, None]
                + np.linspace(0, 50, 53)[None, :], 0, 255).astype(np.uint8)
    dg = decode_jpeg(encode_jpeg(g, quality=85))
    assert dg.shape == (37, 53, 1)
    mse_g = ((dg[:, :, 0].astype(float) - g) ** 2).mean()
    assert 10 * np.log10(255 ** 2 / max(mse_g, 1e-9)) > 35.0


@pytest.mark.usefixtures("ray_session")
def test_jpeg_reencodes_band_as_near_dups():
    """Two re-encoded variants (q90 / q55) of ONE image, embedded in a
    fixture PDF as /DCTDecode XObjects: extraction emits two DISTINCT
    content-addressed media spans (payloads differ), and the
    perceptual pipeline (decode → ahash64 → banding) pairs them — the
    gap VERDICT r3 named: byte-hash features are blind to re-encoded
    JPEG near-dups; decoded pixels are not."""
    import base64
    import hashlib

    import numpy as np
    import pyarrow as pa
    import ray.data

    from tests.helpers import encode_jpeg
    from ray_script_extract.pipelines.multimodal import (
        MEDIA_SCHEMA,
        near_dup_images_from_media,
    )
    from ray_script_extract.sources.pdf_fixtures import build_pdf
    from ray_script_extract.stages.extract import ExtractorActor

    rng = np.random.RandomState(42)
    base = np.zeros((32, 32, 3), np.uint8)
    base[:, :, 0] = np.linspace(10, 240, 32)[None, :].astype(np.uint8)
    base[:, :, 1] = np.linspace(240, 10, 32)[:, None].astype(np.uint8)
    base[8:24, 8:24, 2] = 200  # a block feature the hash keys on
    v90 = encode_jpeg(base, quality=90)
    v55 = encode_jpeg(base, quality=55)
    assert v90 != v55  # genuinely different payloads
    unrelated = encode_jpeg(rng.randint(0, 255, (32, 32, 3), np.uint8),
                            quality=90)

    # PDF plumbing: both variants surface as distinct media spans
    pdf = build_pdf(
        [[(100, 72, "Page one.")]],
        images=[[{"data": v90, "w": 32, "h": 32,
                  "x": 72, "y": 600, "dw": 64, "dh": 64},
                 {"data": v55, "w": 32, "h": 32,
                  "x": 200, "y": 600, "dw": 64, "dh": 64}]])
    spans = ExtractorActor().extract_doc(
        "d1", [{"kind": "pdf_raw",
                "text": base64.b64encode(pdf).decode()}])
    assert {ref for kind, _, ref in spans if kind == "image"} == {
        f"img://sha256/{hashlib.sha256(v90).hexdigest()}",
        f"img://sha256/{hashlib.sha256(v55).hexdigest()}"}

    # perceptual near-dup: the two re-encodes pair; the unrelated
    # image pairs with neither
    media = ray.data.from_arrow(pa.Table.from_arrays([
        pa.array(["img://a", "img://b", "img://c"], pa.string()),
        pa.array(["doc-00000000", "doc-00000008", "doc-00000016"],
                 pa.string()),
        pa.array([v90, v55, unrelated], pa.binary()),
        pa.array(["image"] * 3, pa.string()),
    ], schema=MEDIA_SCHEMA))
    pairs = near_dup_images_from_media(media, max_hamming=3).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 8) in got
    assert all(16 not in p for p in got)
