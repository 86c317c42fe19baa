"""The chunked frame store: `simulate`, `track` and the ablation suite stream
their frames one chunk at a time, with the bits of the whole-stack paths."""

import io
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from xmtrack.cli import main
import xmtrack.io
from xmtrack.io import (
    DataError,
    frame_chunks,
    frame_writer,
    frames_path,
    load_sequence,
    save_scenario,
    save_sequence,
    save_trackrun,
)
from xmtrack.sim import (
    FRAME_CHUNK_BYTES,
    Scenario,
    _suite_inputs,
    classify_sequence,
    filter_inputs,
    generate,
    run,
)

# A 128 x 128 frame is 48 KiB, so a chunk holds 21 frames.
IMAGE = {"image_width": 128, "image_height": 128}
K = Scenario(name="k", frames=1, **IMAGE).chunk_frames()
BOUNDARIES = (1, K - 1, K, K + 1, 2 * K + 3)


def _scenario(frames):
    """A turning target through 7-frame band segments and a blackout: every frame kind in every chunk."""
    return Scenario(
        name=f"chunks-{frames}",
        frames=frames,
        initial_box=(96.0, 256.0, 30.0, 30.0),
        velocity=(0.0, -4.0),
        turn_rate=0.02,
        modality_schedule=[(s, min(frames, s + 7), ("rgb", "nir")[i % 2]) for i, s in enumerate(range(0, frames, 7))],
        invalid_windows=[(frames // 2, frames // 2 + 3)] if frames >= 8 else [],
        switch_noise_boost=4.0,
        seed=frames,
        **IMAGE,
    )


def _simulate(tmp_path, sc):
    save_scenario(tmp_path / "scenario.json", sc)
    out = tmp_path / "seq.jsonl"
    assert main(["simulate", str(tmp_path / "scenario.json"), "--out", str(out)]) == 0
    return out


def test_a_chunk_is_one_mib_of_frames():
    assert FRAME_CHUNK_BYTES == 1 << 20
    assert K == FRAME_CHUNK_BYTES // (128 * 128 * 3) == 21
    assert Scenario(name="huge", frames=1, image_width=1024, image_height=1024).chunk_frames() == 1


@pytest.mark.parametrize("frames", BOUNDARIES)
def test_generate_streams_the_stack_it_returns_in_chunks(frames):
    sc = _scenario(frames)
    whole = generate(sc)
    chunks = []
    streamed = generate(sc, lambda chunk: chunks.append(chunk.copy()))
    assert streamed.frames is None
    assert [len(c) for c in chunks] == [min(K, frames - start) for start in range(0, frames, K)]
    assert np.concatenate(chunks).tobytes() == whole.frames.tobytes()
    for name in ("gt", "observed", "s"):
        assert getattr(streamed, name).tobytes() == getattr(whole, name).tobytes(), name


@pytest.mark.parametrize("frames", BOUNDARIES)
def test_simulate_writes_the_bytes_of_the_whole_stack(tmp_path, frames):
    sc = _scenario(frames)
    out = _simulate(tmp_path, sc)
    seq = generate(sc)
    saved = io.BytesIO()
    np.save(saved, seq.frames)
    assert frames_path(out).read_bytes() == saved.getvalue()
    with frame_writer(tmp_path / "library.jsonl", sc) as write:
        write(seq.frames)
    save_sequence(tmp_path / "library.jsonl", seq)
    assert out.read_bytes() == (tmp_path / "library.jsonl").read_bytes()
    assert frames_path(tmp_path / "library.jsonl").read_bytes() == saved.getvalue()


@pytest.mark.parametrize("frames", BOUNDARIES)
def test_track_writes_the_bytes_of_the_whole_stack_run(tmp_path, frames):
    sc = _scenario(frames)
    out = _simulate(tmp_path, sc)
    assert main(["track", str(out), "--out", str(tmp_path / "run.json")]) == 0
    save_trackrun(tmp_path / "want.json", sc.name, run(generate(sc)))
    assert (tmp_path / "run.json").read_bytes() == (tmp_path / "want.json").read_bytes()


@pytest.mark.parametrize("frames", BOUNDARIES)
def test_suite_inputs_classify_each_chunk_as_the_whole_stack(frames):
    sc = _scenario(frames)
    seq = generate(sc)
    want = filter_inputs(seq, classify_sequence(seq))
    got = _suite_inputs(sc)
    for name in ("valid", "m", "observed", "s", "gt"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("frames", BOUNDARIES)
def test_frame_chunks_read_back_the_stack(tmp_path, frames):
    sc = _scenario(frames)
    out = _simulate(tmp_path, sc)
    chunks = [chunk.copy() for chunk in frame_chunks(out, sc)]
    assert [len(c) for c in chunks] == [min(K, frames - start) for start in range(0, frames, K)]
    assert np.concatenate(chunks).tobytes() == generate(sc).frames.tobytes()


def test_load_sequence_checks_the_stack_and_leaves_it_on_disk(tmp_path):
    sc = _scenario(K + 1)
    out = _simulate(tmp_path, sc)
    seq = load_sequence(out)
    assert seq.frames is None and seq.observed.tobytes() == generate(sc).observed.tobytes()
    frames_path(out).write_bytes(frames_path(out).read_bytes()[:-1])
    with pytest.raises(DataError, match="unreadable frame stack"):
        load_sequence(out)


def _jsonl_fails(monkeypatch):
    def fail(path, seq):
        raise DataError(f"{path}: cannot write")

    monkeypatch.setattr(xmtrack.io, "save_sequence", fail)
    return DataError


def _interrupted_after_one_chunk(monkeypatch):
    def generate_then_stop(sc, sink):
        def write_then_stop(chunk):
            sink(chunk)
            raise KeyboardInterrupt

        return generate(sc, write_then_stop)

    monkeypatch.setattr("xmtrack.cli.generate", generate_then_stop)
    return KeyboardInterrupt


@pytest.mark.parametrize("failure", [_jsonl_fails, _interrupted_after_one_chunk])
@pytest.mark.parametrize("earlier_run", [False, True])
def test_a_failed_simulate_leaves_the_old_npy_or_none(tmp_path, monkeypatch, failure, earlier_run):
    """The .npy is written to a .part file that replaces it only once the JSONL is written."""
    sc = _scenario(2 * K + 3)
    save_scenario(tmp_path / "scenario.json", sc)
    out, old = tmp_path / "seq.jsonl", {}
    if earlier_run:
        out = _simulate(tmp_path, replace(sc, seed=99))
        old = {p.name: p.read_bytes() for p in (out, frames_path(out))}
    error = failure(monkeypatch)
    try:
        code = main(["simulate", str(tmp_path / "scenario.json"), "--out", str(out)])
        assert error is DataError and code == 2
    except KeyboardInterrupt:
        assert error is KeyboardInterrupt
    assert {p.name: p.read_bytes() for p in (out, frames_path(out)) if p.exists()} == old
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["scenario.json", *old])


def test_frame_writer_leaves_no_npy_when_a_chunk_cannot_be_written(tmp_path):
    sc = _scenario(3)
    with pytest.raises(ValueError, match="not C-contiguous"):
        with frame_writer(tmp_path / "seq.jsonl", sc) as write:
            write(np.asfortranarray(generate(sc).frames))
    assert list(tmp_path.iterdir()) == []


def test_a_store_that_shrinks_while_read_is_a_data_error(tmp_path):
    sc = _scenario(2 * K + 3)
    out = _simulate(tmp_path, sc)
    npy = frames_path(out)
    data_start = npy.stat().st_size - sc.frames * 128 * 128 * 3
    chunks = frame_chunks(out, sc)
    assert len(next(chunks)) == K  # the checks passed on the whole file
    os.truncate(npy, data_start + (K + 2) * 128 * 128 * 3)
    with pytest.raises(DataError, match=f"data ends before frame {2 * K}"):
        list(chunks)


def _pipeline_like(frames=600):
    """600 64 x 64 frames (a 7.4 MB stack) under 25-frame band segments and two blackouts per 150 frames."""
    return Scenario(
        name="long",
        frames=frames,
        initial_box=(96.0, 256.0, 34.0, 34.0),
        velocity=(0.0, -4.0),
        turn_rate=0.025,
        modality_schedule=[(s, s + 25, ("rgb", "nir")[i % 2]) for i, s in enumerate(range(0, frames, 25))],
        invalid_windows=[(b + s, b + e) for b in range(0, frames, 150) for s, e in ((55, 73), (110, 128))],
        switch_noise_boost=8.0,
    )


@pytest.mark.parametrize("command", ["simulate", "track"])
def test_simulate_and_track_hold_one_chunk_of_frames(tmp_path, command):
    """Neither command holds the 7.4 MB stack: its traced peak stays below two chunks."""
    sc = _pipeline_like()
    assert sc.frames * sc.image_height * sc.image_width * 3 > 7 * FRAME_CHUNK_BYTES
    save_scenario(tmp_path / "scenario.json", sc)
    seq = tmp_path / "seq.jsonl"
    argv = {
        "simulate": ["simulate", str(tmp_path / "scenario.json"), "--out", str(seq)],
        "track": ["track", str(seq), "--out", str(tmp_path / "run.json")],
    }
    for warm_up in ("simulate", command):  # first-call allocations are not the command's
        assert main(argv[warm_up]) == 0
    tracemalloc.start()
    try:
        assert main(argv[command]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * FRAME_CHUNK_BYTES, peak
