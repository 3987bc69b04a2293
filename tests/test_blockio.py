"""Every artifact loader, binary or JSON, either returns or raises DataError,
and no length field makes it allocate more than the file holds."""

import argparse
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avembed import blockio, cli
from avembed.attention import load_attention_params, random_attention_params, save_attention_params
from avembed.cca import fit_cca, fit_kcca, load_cca_model, save_cca_model
from avembed.clustering import load_assignments, load_seed_sets, save_assignments, save_seed_sets
from avembed.data import (
    FeatureSequence, Manifest, ManifestEntry, load_manifest, load_sequence, write_manifest, write_sequence,
)
from avembed.deep import DeepModel, init_branch, load_deep_model, save_deep_model
from avembed.errors import CorruptFileError, DataError, FormatError, ValidationError
from avembed.retrieval import build_index, load_index, save_index
from conftest import edit_header


_SYNTH_ARGS = vars(cli.build_parser().parse_args(["synth", "--out", "x"]))


def _resolve_config(path):
    """The settings `synth --config path` would run with."""
    return cli._resolve(argparse.Namespace(**{**_SYNTH_ARGS, "config": str(path)}))


_LOADERS = {
    "fvsq": load_sequence,
    "cca": load_cca_model,
    "kcca": load_cca_model,
    "dcca": load_deep_model,
    "index": load_index,
    "manifest": load_manifest,
    "assignments": load_assignments,
    "seeds": load_seed_sets,
    "weights": load_attention_params,
    "config": _resolve_config,
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> dict:
    """One small valid file of each kind."""
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(8, 3)), rng.normal(size=(8, 2))
    write_sequence(FeatureSequence("v", "audio", rng.normal(size=(3, 2)).astype(np.float32)), root / "fvsq")
    save_cca_model(fit_cca(x, y, 2), root / "cca")
    save_cca_model(fit_kcca(x, y, 2), root / "kcca")
    deep = DeepModel(
        audio_branch=init_branch([3, 4, 2], rng),
        visual_branch=init_branch([2, 2], rng),
        cca_head=fit_cca(rng.normal(size=(8, 2)), rng.normal(size=(8, 2)), 2),
        objective_history=[1.5],
    )
    save_deep_model(deep, root / "dcca", extra={"method": "dcca"})
    save_index(build_index(rng.normal(size=(4, 2)), np.arange(4), ["a", "b", "c", "d"]), root / "index")
    entries = [ManifestEntry(v, 5 + i, f"audio/{v}.fvsq", f"visual/{v}.fvsq", label)
               for i, (v, label) in enumerate([("a", 0), ("b", None)])]
    write_manifest(Manifest(entries), root / "manifest")
    save_assignments(["a", "b"], np.array([0, 1]), root / "assignments")
    save_seed_sets({"calm": ["a"], "warm": ["b", "c"]}, root / "seeds")
    save_attention_params(random_attention_params(2, 1, 1), root / "weights")
    (root / "config").write_text('{"videos": 6, "noise_std": 0.5, "method": "kcca", "reg": null}')
    for kind, loader in _LOADERS.items():
        loader(root / kind)  # mutations start from files that load
    return {kind: root / kind for kind in _LOADERS}


def _load_small(loader, path):
    """Load path; fail if the load allocated 1 MiB or more at its peak."""
    tracemalloc.start()
    try:
        loader(path)
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 1 << 20


@pytest.fixture(scope="module")
def mutated_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


# a mutated float may overflow when the index norms are computed
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", list(_LOADERS))
@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_or_truncated_file_loads_or_raises_data_error(valid, mutated_dir, kind, data):
    """Single-byte changes and truncations: the loader returns or raises DataError, within 1 MiB."""
    raw = valid[kind].read_bytes()
    pos = data.draw(st.integers(0, len(raw) - 1), label="position")
    if data.draw(st.booleans(), label="truncate"):
        mutated = raw[:pos]
    else:
        flip = data.draw(st.integers(1, 255), label="xor")
        mutated = raw[:pos] + bytes([raw[pos] ^ flip]) + raw[pos + 1 :]
    path = mutated_dir / kind
    path.write_bytes(mutated)
    try:
        _load_small(_LOADERS[kind], path)
    except DataError:
        pass


def _block(name: bytes, code: int, shape: tuple[int, ...], payload: bytes = b"") -> bytes:
    return struct.pack(f"<I{len(name)}sBI{len(shape)}I", len(name), name, code, len(shape), *shape) + payload


_HEADER = b'{"type": "linear-cca"}'


def _dcca(n_audio_layers: int) -> bytes:
    """A deep model file of one layer per branch whose header claims n_audio_layers audio layers."""
    header = f'{{"type": "dcca", "n_audio_layers": {n_audio_layers}, "n_visual_layers": 1}}'.encode()
    blocks = [_block(f"{side}.{kind}0".encode(), 1, (1,), bytes(8)) for side in ("audio", "visual") for kind in "wb"]
    return b"AVDM" + struct.pack("<BI", 1, len(header)) + header + b"".join(blocks)


@pytest.mark.parametrize("loader, raw, error", [
    # n_frames * dim * 4 does not fit in a C ssize_t
    (load_sequence, b"FVSQ" + struct.pack("<BBII", 1, 0, 0xFFFFFFFF, 0xFFFFFFFF) + bytes(16), CorruptFileError),
    # np.prod of this shape wraps to 0 in int64
    (load_cca_model, b"AVCM" + struct.pack("<BI", 1, len(_HEADER)) + _HEADER
     + _block(b"wx", 1, (2**31, 2**31, 4), bytes(16)), CorruptFileError),
    (load_cca_model, b"AVCM" + struct.pack("<BI", 1, 0xFFFFFFFF) + _HEADER, CorruptFileError),
    # no bytes to read, but numpy cannot index a 0 x 2^32-1 x 2^32-1 x 2^32-1 array
    (load_cca_model, b"AVCM" + struct.pack("<BI", 1, len(_HEADER)) + _HEADER
     + _block(b"wx", 1, (0, 2**32 - 1, 2**32 - 1, 2**32 - 1)), CorruptFileError),
    (load_cca_model, b"AVCM" + struct.pack("<BI", 1, len(_HEADER)) + _HEADER
     + _block(b"wx", 1, (1,) * 65, bytes(8)), CorruptFileError),
    # a layer count is two blocks per layer, more than the file holds
    (load_deep_model, _dcca(10**6), FormatError),
    (load_deep_model, _dcca(2**62), FormatError),
], ids=["fvsq-frames-times-dim", "block-shape-wraps-int64", "header-length", "zero-size-shape-too-large",
        "ndim-above-numpy-limit", "dcca-layer-count-million", "dcca-layer-count-2-62"])
def test_oversized_length_field_is_corrupt_and_allocates_nothing_large(tmp_path, loader, raw, error):
    path = tmp_path / "crafted"
    path.write_bytes(raw)
    with pytest.raises(error):
        _load_small(loader, path)


_NESTED = b"[" * 100_000


@pytest.mark.parametrize("kind, edit, line", [
    ("manifest", lambda raw: raw.splitlines(keepends=True)[0] + _NESTED, 2),
    ("assignments", lambda raw: raw.splitlines(keepends=True)[0] + _NESTED, 2),
    ("seeds", lambda raw: _NESTED, 1),
    ("weights", lambda raw: _NESTED, 1),
    ("config", lambda raw: _NESTED, 1),
    ("cca", lambda raw: edit_header(raw, lambda header: _NESTED), 1),
    ("dcca", lambda raw: edit_header(raw, lambda header: _NESTED), 1),
    ("index", lambda raw: edit_header(raw, lambda header: _NESTED), 1),
    ("index", lambda raw: raw + _NESTED + b"\n", 5),  # the id table's four lines, then this one
], ids=["manifest", "assignments", "seeds", "weights", "config", "cca-header", "dcca-header", "index-header",
        "index-id-table"])
def test_deeply_nested_json_is_a_format_error(valid, tmp_path, kind, edit, line):
    """100 000 nested arrays in any JSON artifact, header or id table raise FormatError naming the line,
    not the parser's RecursionError."""
    path = tmp_path / kind
    path.write_bytes(edit(valid[kind].read_bytes()))
    with pytest.raises(FormatError, match=f":{line}: invalid .*: nested too deeply"):
        _LOADERS[kind](path)


@pytest.mark.parametrize("edit", [
    lambda raw: raw[:6] + struct.pack("<I", 2) + raw[10:],  # n_frames lowered from 3 to 2
    lambda raw: raw + b"junk",
], ids=["n-frames-lowered", "bytes-appended"])
def test_bytes_after_the_payload_are_corrupt(valid, tmp_path, edit):
    path = tmp_path / "crafted"
    path.write_bytes(edit(valid["fvsq"].read_bytes()))
    with pytest.raises(CorruptFileError, match="trailing bytes"):
        load_sequence(path)


class TestOneFiniteCheck:
    """blockio.all_finite, the finite check of FVSQ frames and of float blocks, finds a NaN or an
    infinity anywhere in a 1001-value payload (odd, so a SIMD loop's tail holds the last value),
    passes finite values whose squares overflow, and raises no numpy warning on either path."""

    @pytest.fixture(autouse=True)
    def _runtime_warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yield

    @staticmethod
    def _values(dtype, at=None, bad=None) -> np.ndarray:
        values = np.random.default_rng(7).normal(size=1001).astype(dtype)
        if at is not None:
            values[at] = bad
        return values

    @staticmethod
    def _fvsq(path, values) -> None:
        """An FVSQ audio file of the 1001 values as 7 frames of 143, written without the check."""
        path.write_bytes(b"FVSQ" + struct.pack("<BBII", 1, 0, 7, 143) + values.astype("<f4").tobytes())

    @pytest.mark.parametrize("dtype", ["<f4", "<f8"])
    @pytest.mark.parametrize("at", [0, 500, 1000], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_one_non_finite_value_is_found(self, dtype, at, bad):
        values = self._values(dtype, at, bad)
        assert not blockio.all_finite(values) and not blockio.all_finite(values.reshape(7, 143))
        assert blockio.all_finite(self._values(dtype))

    def test_both_infinities_together_are_found(self):
        values = self._values("<f4")
        values[[3, 997]] = np.inf, -np.inf
        assert not blockio.all_finite(values)

    @pytest.mark.parametrize("at", [0, 500, 1000], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_fvsq_payload_and_float_block_are_rejected(self, tmp_path, at, bad):
        self._fvsq(tmp_path / "v.fvsq", self._values("<f4", at, bad))
        with pytest.raises(ValidationError, match="sequence 'v' contains non-finite values"):
            load_sequence(tmp_path / "v.fvsq")
        blockio.save(tmp_path / "m", b"TEST", {}, {"w": self._values("<f8", at, bad).reshape(7, 143)})
        with pytest.raises(CorruptFileError, match="block 'w' holds NaN or Inf"):
            blockio.load(tmp_path / "m", b"TEST")

    def test_finite_values_whose_squares_overflow_load(self, tmp_path):
        # 1e30 squared overflows float32 and 1e200 squared float64: the dot is inf, the values finite
        frames = np.where(np.arange(1001) % 2, 1e30, -1e30).astype(np.float32)
        self._fvsq(tmp_path / "v.fvsq", frames)
        assert np.array_equal(load_sequence(tmp_path / "v.fvsq").frames, frames.reshape(7, 143))
        block = np.where(np.arange(1001) % 2, 1e200, -1e200).reshape(7, 143)
        blockio.save(tmp_path / "m", b"TEST", {}, {"w": block})
        assert np.array_equal(blockio.load(tmp_path / "m", b"TEST")[1]["w"], block)
