"""Command-line entry point: synth, ingest, chunk-select, cluster, train, index,
query, and eval subcommands.

Exit codes: 0 success, 1 usage, 2 data/validation, 3 numerical/divergence.
All randomness flows from --seed; every output file echoes enough
configuration to reproduce the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import attention as att
from . import cca as cca_mod
from . import deep as deep_mod
from . import evaluation as ev
from . import pipeline as pl
from . import retrieval as rt
from .blockio import read_header
from .clustering import (
    EMOTION_CATEGORIES,
    load_assignments,
    load_seed_sets,
    save_assignments,
    save_seed_sets,
)
from .data import SynthConfig, filter_manifest, load_manifest, load_sequence, write_dataset, write_manifest
from .errors import DataError, NumericalError, ResourceLimitError, ValidationError

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERICAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="root seed (default 0)")
    p.add_argument("--config", type=str, default=None, help="JSON config file; flags override its values")


_DEFAULTS = {
    "seed": 0,
    "videos": 100,
    "clusters": 10,
    "latent_dim": 16,
    "noise_std": 0.1,
    "length_min": 213,
    "length_max": 219,
    "k": 10,
    "max_iter": 100,
    "tol": 1e-8,
    "method": "cca",
    "f": 0.0,
    "target_pairs": None,
    "r": 30,
    "reg": None,
    "batch_size": 512,
    "epochs": 50,
    "learning_rate": 0.001,
    "dropout": 0.2,
    "rho": 0.9,
    "epsilon": 1e-8,
    "folds": 5,
    "kcca_beta": 0.4,
    "kcca_kappa": 1e-3,
    "chunks": 3,
    "top_k": 1,
    "attention_seed": 0,
    "attention_hidden": 16,
    "n": 10,
    "pr_stride": 1,
    "query_mode": "mean",
    "methods": "cca,kcca,ccca,dcca,sdcca",
    "audio_layers": "128,128,64,64",
    "visual_layers": "512,512,256,256",
    "span_min": None,
    "span_max": None,
}


def _resolve(args: argparse.Namespace) -> dict:
    """Built-in defaults, overridden by --config JSON, overridden by explicit flags."""
    merged = dict(_DEFAULTS)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            merged.update(json.loads(Path(cfg_path).read_text(encoding="utf-8")))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{cfg_path}: invalid JSON config: {exc}") from exc
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None:
            continue
        merged[key] = value
    return merged


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in str(text).split(","))
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc


def _attention_params(cfg: dict, input_dim: int) -> att.AttentionParams:
    if cfg.get("attention_weights"):
        return att.load_attention_params(cfg["attention_weights"])
    return att.random_attention_params(
        input_dim,
        hidden_dim=int(cfg["attention_hidden"]),
        attention_dim=int(cfg["attention_hidden"]),
        seed=int(cfg["attention_seed"]),
    )


def _train_config(cfg: dict) -> deep_mod.TrainConfig:
    return deep_mod.TrainConfig(
        batch_size=int(cfg["batch_size"]),
        epochs=int(cfg["epochs"]),
        learning_rate=float(cfg["learning_rate"]),
        rho=float(cfg["rho"]),
        epsilon=float(cfg["epsilon"]),
        dropout=float(cfg["dropout"]),
        r=int(cfg["r"]),
        reg=1e-4 if cfg["reg"] is None else float(cfg["reg"]),
        seed=int(cfg["seed"]),
        folds=int(cfg["folds"]),
    )


def _labels_for(prepared: pl.PreparedDataset, cfg: dict) -> np.ndarray:
    if cfg.get("labels"):
        by_id = load_assignments(cfg["labels"])
        missing = [v for v in prepared.ids if v not in by_id]
        if missing:
            raise ValidationError(f"assignments file lacks labels for {missing[:5]} ...")
        return np.asarray([by_id[v] for v in prepared.ids], dtype=np.int64)
    if prepared.manifest_labels is not None:
        return np.asarray(prepared.manifest_labels, dtype=np.int64)
    raise ValidationError("no --labels file and the manifest carries no labels; run `cluster` first")


def _config_echo(cfg: dict, **extra) -> dict:
    # output locations do not affect the computation, so reruns into
    # different directories stay byte-identical
    skip = {"out", "out_dir", "out_manifest", "config"}
    echo = {
        k: v
        for k, v in sorted(cfg.items())
        if k not in skip and isinstance(v, (int, float, str, bool, type(None)))
    }
    echo.update(extra)
    return echo


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    out = Path(cfg["out"])
    synth = SynthConfig(
        n_videos=int(cfg["videos"]),
        n_clusters=int(cfg["clusters"]),
        latent_dim=int(cfg["latent_dim"]),
        noise_std=float(cfg["noise_std"]),
        length_range=(int(cfg["length_min"]), int(cfg["length_max"])),
        seed=int(cfg["seed"]),
    )
    manifest = write_dataset(synth, out)
    labels = {e.video_id: e.label for e in manifest.entries}
    names = (
        list(EMOTION_CATEGORIES)
        if synth.n_clusters == len(EMOTION_CATEGORIES)
        else [f"cluster_{i:02d}" for i in range(synth.n_clusters)]
    )
    categories = {
        names[c]: [v for v, lab in labels.items() if lab == c][:3] for c in range(synth.n_clusters)
    }
    save_seed_sets(categories, out / "seeds.json")
    lengths = [e.length_sec for e in manifest.entries]
    print(
        f"wrote {len(manifest)} videos to {out} "
        f"(lengths {min(lengths)}..{max(lengths)}, {synth.n_clusters} clusters, seed {synth.seed})"
    )
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    root = Path(cfg["dataset"])
    manifest = load_manifest(root / "manifest.jsonl")
    if cfg["span_min"] is not None or cfg["span_max"] is not None:
        lo = int(cfg["span_min"]) if cfg["span_min"] is not None else manifest.length_span[0]
        hi = int(cfg["span_max"]) if cfg["span_max"] is not None else manifest.length_span[1]
        manifest = filter_manifest(manifest, (lo, hi))
        if len(manifest) == 0:
            raise ValidationError(f"no entries with length in [{lo}, {hi}]")
    dims = set()
    for e in manifest.entries:
        audio = load_sequence(root / e.audio_path)
        visual = load_sequence(root / e.visual_path)
        if audio.n_frames != visual.n_frames:
            raise ValidationError(
                f"{e.video_id!r}: audio {audio.n_frames} frames vs visual {visual.n_frames}; "
                "modalities must truncate equally"
            )
        if audio.n_frames != e.length_sec:
            raise ValidationError(
                f"{e.video_id!r}: manifest says {e.length_sec}s but file holds {audio.n_frames} frames"
            )
        dims.add((audio.dim, visual.dim))
    if cfg.get("out_manifest"):
        write_manifest(manifest, cfg["out_manifest"])
    labelled = sum(1 for e in manifest.entries if e.label is not None)
    print(
        f"ok: {len(manifest)} videos, lengths {manifest.length_span[0]}..{manifest.length_span[1]}, "
        f"feature dims {sorted(dims)}, {labelled} labelled"
    )
    return 0


def cmd_chunk_select(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    prepared = pl.prepare_dataset(cfg["dataset"])
    c, k = int(cfg["chunks"]), int(cfg["top_k"])
    if k > c:
        raise ValidationError(f"--top-k {k} exceeds --chunks {c}")
    params = _attention_params(cfg, prepared.audio_mean.shape[1])
    wanted = [cfg["video_id"]] if cfg.get("video_id") else prepared.ids
    rows = {v: i for i, v in enumerate(prepared.ids)}
    results = []
    for vid in wanted:
        if vid not in rows:
            raise ValidationError(f"video {vid!r} not in the dataset")
        sel = pl.chunk_selection_for(prepared.chunk_maxes[rows[vid]], params, c, k)
        results.append(
            {
                "video_id": vid,
                "chunks": c,
                "top_k": k,
                "selected": sel.selected_indices,
                "scores": [float(s) for s in sel.scores],
            }
        )
    text = "\n".join(json.dumps(r) for r in results)
    if cfg.get("out"):
        Path(cfg["out"]).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    prepared = pl.prepare_dataset(cfg["dataset"])
    seed_vectors = None
    if cfg.get("seeds_file"):
        categories = load_seed_sets(cfg["seeds_file"])
        rows = {v: i for i, v in enumerate(prepared.ids)}
        seed_vectors = []
        for name, vids in categories.items():
            missing = [v for v in vids if v not in rows]
            if missing:
                raise ValidationError(f"seed category {name!r} references unknown videos {missing}")
            seed_vectors.append(prepared.audio_mean[[rows[v] for v in vids]])
    model = pl.cluster_dataset(
        prepared, seed_vectors, k=int(cfg["k"]), max_iter=int(cfg["max_iter"]), tol=float(cfg["tol"])
    )
    save_assignments(prepared.ids, model.labels, cfg["out"])
    sizes = np.bincount(model.labels, minlength=model.k)
    print(
        f"clustered {len(prepared)} videos into {model.k} groups in {model.iterations_run} iterations "
        f"(inertia {model.inertia:.4f}, sizes {sizes.tolist()}) -> {cfg['out']}"
    )
    return 0


def _query_matrix_for(prepared: pl.PreparedDataset, cfg: dict) -> np.ndarray:
    mode = cfg["query_mode"]
    if mode == "mean":
        return pl.query_matrix(prepared, "mean")
    c, k = _int_tuple(mode)
    params = _attention_params(cfg, prepared.audio_mean.shape[1])
    return pl.query_matrix(prepared, (c, k), params)


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    prepared = pl.prepare_dataset(cfg["dataset"])
    method = cfg["method"]
    if method not in pl.METHODS:
        raise ValidationError(f"unknown method {method!r}; expected one of {pl.METHODS}")
    audio = _query_matrix_for(prepared, cfg)
    labels = _labels_for(prepared, cfg) if method in ("ccca", "sdcca") else None
    train_cfg = _train_config(cfg)
    model, _, _ = pl.train_method(
        method,
        audio,
        prepared.visual,
        labels,
        r=int(cfg["r"]),
        reg=None if cfg["reg"] is None else float(cfg["reg"]),
        f=float(cfg["f"]),
        target_pairs=None if cfg["target_pairs"] is None else int(cfg["target_pairs"]),
        kcca_beta=float(cfg["kcca_beta"]),
        kcca_kappa=float(cfg["kcca_kappa"]),
        train_cfg=train_cfg,
        audio_layers=_int_tuple(cfg["audio_layers"]),
        visual_layers=_int_tuple(cfg["visual_layers"]),
    )
    echo = _config_echo(cfg, command="train")
    out = cfg["out"]
    if isinstance(model, cca_mod.LinearProjection):
        cca_mod.save_projection(model, out, extra=echo)
    elif isinstance(model, cca_mod.KernelModel):
        cca_mod.save_kernel_model(model, out, extra=echo)
    else:
        deep_mod.save_deep_model(model, out, extra=echo)
    corr = np.asarray(model.correlations if not isinstance(model, deep_mod.DeepModel) else model.cca_head.correlations)
    print(f"trained {method} (r={corr.shape[0]}, top correlation {corr[0]:.4f}) -> {out}")
    return 0


def _load_any_model(path: str | Path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"AVDM":
        return deep_mod.load_deep_model(path)
    return cca_mod.load_cca_model(path)


def cmd_index(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    prepared = pl.prepare_dataset(cfg["dataset"])
    _, embed_visual = pl.embedders(_load_any_model(cfg["model"]))
    labels = _labels_for(prepared, cfg)
    index = rt.build_index(embed_visual(prepared.visual), labels, prepared.ids)
    rt.save_index(index, cfg["out"])
    print(f"indexed {len(index)} videos (width {index.r}) -> {cfg['out']}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    prepared = pl.prepare_dataset(cfg["dataset"])
    index = rt.load_index(cfg["index"])
    embed_audio, _ = pl.embedders(_load_any_model(cfg["model"]))
    rows = {v: i for i, v in enumerate(prepared.ids)}
    vid = cfg["video_id"]
    if vid not in rows:
        raise ValidationError(f"video {vid!r} not in the dataset")
    sub = pl.PreparedDataset(
        ids=[vid],
        lengths=prepared.lengths[[rows[vid]]],
        audio_mean=prepared.audio_mean[[rows[vid]]],
        chunk_means=[prepared.chunk_means[rows[vid]]],
        chunk_maxes=[prepared.chunk_maxes[rows[vid]]],
        visual=prepared.visual[[rows[vid]]],
    )
    query_vec = embed_audio(_query_matrix_for(sub, cfg))[0]
    ranked = rt.rank(index, query_vec, n=int(cfg["n"]), query_id=vid)
    for video_id, sim in ranked.items:
        print(json.dumps({"video_id": video_id, "similarity": sim}))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    prepared = pl.prepare_dataset(cfg["dataset"])
    methods = [m.strip() for m in str(cfg["methods"]).split(",") if m.strip()]
    unknown = [m for m in methods if m not in pl.METHODS]
    if unknown:
        raise ValidationError(f"unknown methods {unknown}; expected among {pl.METHODS}")
    labels = _labels_for(prepared, cfg)
    params = _attention_params(cfg, prepared.audio_mean.shape[1])
    train_cfg = _train_config(cfg)

    queries: dict[str, np.ndarray] = {}
    for mode in pl.SWEEP_CONFIGS:
        name = "mean" if mode == "mean" else f"{mode[1]}of{mode[0]}"
        queries[name] = pl.query_matrix(prepared, mode, params)
    col_heads = ["1/3", "2/6", "3/9", "mean"]
    col_names = ["1of3", "2of6", "3of9", "mean"]

    matrix_rows = []
    failures = []
    for method in methods:
        row = [method]
        for head, name in zip(col_heads, col_names):
            cell_cfg = _config_echo(
                cfg, method=method, query_config=head, command="eval", folds=int(cfg["folds"])
            )
            try:
                trainer = pl.make_trainer(
                    method,
                    queries[name],
                    prepared.visual,
                    labels if method in ("ccca", "sdcca") else None,
                    r=int(cfg["r"]),
                    reg=None if cfg["reg"] is None else float(cfg["reg"]),
                    f=float(cfg["f"]),
                    target_pairs=None if cfg["target_pairs"] is None else int(cfg["target_pairs"]),
                    kcca_beta=float(cfg["kcca_beta"]),
                    kcca_kappa=float(cfg["kcca_kappa"]),
                    train_cfg=train_cfg,
                    audio_layers=_int_tuple(cfg["audio_layers"]),
                    visual_layers=_int_tuple(cfg["visual_layers"]),
                )
                report = ev.cross_validate(
                    queries[name],
                    prepared.visual,
                    labels,
                    prepared.ids,
                    trainer,
                    folds=int(cfg["folds"]),
                    seed=int(cfg["seed"]),
                    pr_stride=int(cfg["pr_stride"]),
                    config=cell_cfg,
                )
            except (DataError, NumericalError, ResourceLimitError, ValueError) as exc:
                print(f"eval cell {method}/{head} failed: {exc}", file=sys.stderr)
                failures.append((method, head))
                row.append("error")
                continue
            ev.pr_curve_export(report, out_dir / f"pr_{method}_{name}.csv")
            ev.report_to_json(report, out_dir / f"report_{method}_{name}.json")
            row.append(repr(report.map_score))
            print(f"{method:6s} {head:4s} MAP={report.map_score:.4f}")
        matrix_rows.append(row)

    lines = ["method," + ",".join(col_heads)]
    lines.extend(",".join(row) for row in matrix_rows)
    (out_dir / "map_matrix.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out_dir / 'map_matrix.csv'}")
    if failures:
        print(f"{len(failures)} cell(s) failed: {failures}", file=sys.stderr)
        return DATA_EXIT
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="avembed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic clustered dataset directory")
    p.add_argument("--out", required=True)
    p.add_argument("--videos", type=int, default=None)
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--latent-dim", dest="latent_dim", type=int, default=None)
    p.add_argument("--noise-std", dest="noise_std", type=float, default=None)
    p.add_argument("--length-min", dest="length_min", type=int, default=None)
    p.add_argument("--length-max", dest="length_max", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate a dataset directory, optionally filter by length span")
    p.add_argument("--dataset", required=True)
    p.add_argument("--span-min", dest="span_min", type=int, default=None)
    p.add_argument("--span-max", dest="span_max", type=int, default=None)
    p.add_argument("--out-manifest", dest="out_manifest", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("chunk-select", help="score and select representative audio chunks")
    p.add_argument("--dataset", required=True)
    p.add_argument("--video-id", dest="video_id", default=None, help="default: all videos")
    p.add_argument("--chunks", type=int, default=None)
    p.add_argument("--top-k", dest="top_k", type=int, default=None)
    p.add_argument("--attention-weights", dest="attention_weights", default=None)
    p.add_argument("--attention-seed", dest="attention_seed", type=int, default=None)
    p.add_argument("--attention-hidden", dest="attention_hidden", type=int, default=None)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_chunk_select)

    p = sub.add_parser("cluster", help="seeded k-means over video-level audio features")
    p.add_argument("--dataset", required=True)
    p.add_argument("--seeds-file", dest="seeds_file", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="fit one embedding method and write a model file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--method", choices=pl.METHODS, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--labels", default=None, help="assignments JSONL from `cluster`")
    p.add_argument("--f", type=float, default=None, help="cluster expansion fraction")
    p.add_argument("--target-pairs", dest="target_pairs", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--reg", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--kcca-beta", dest="kcca_beta", type=float, default=None)
    p.add_argument("--kcca-kappa", dest="kcca_kappa", type=float, default=None)
    p.add_argument("--query-mode", dest="query_mode", default=None, help="'mean' or 'c,k'")
    p.add_argument("--attention-weights", dest="attention_weights", default=None)
    p.add_argument("--attention-seed", dest="attention_seed", type=int, default=None)
    p.add_argument("--attention-hidden", dest="attention_hidden", type=int, default=None)
    p.add_argument("--audio-layers", dest="audio_layers", default=None)
    p.add_argument("--visual-layers", dest="visual_layers", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("index", help="embed visual features and write a retrieval index")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="rank indexed videos against one audio query")
    p.add_argument("--dataset", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--video-id", dest="video_id", required=True)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--query-mode", dest="query_mode", default=None)
    p.add_argument("--attention-weights", dest="attention_weights", default=None)
    p.add_argument("--attention-seed", dest="attention_seed", type=int, default=None)
    p.add_argument("--attention-hidden", dest="attention_hidden", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="cross-validated MAP matrix over the chunk-config sweep")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--methods", default=None, help="comma list among cca,kcca,ccca,dcca,sdcca")
    p.add_argument("--labels", default=None)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--f", type=float, default=None)
    p.add_argument("--target-pairs", dest="target_pairs", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--reg", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--kcca-beta", dest="kcca_beta", type=float, default=None)
    p.add_argument("--kcca-kappa", dest="kcca_kappa", type=float, default=None)
    p.add_argument("--pr-stride", dest="pr_stride", type=int, default=None)
    p.add_argument("--attention-weights", dest="attention_weights", default=None)
    p.add_argument("--attention-seed", dest="attention_seed", type=int, default=None)
    p.add_argument("--attention-hidden", dest="attention_hidden", type=int, default=None)
    p.add_argument("--audio-layers", dest="audio_layers", default=None)
    p.add_argument("--visual-layers", dest="visual_layers", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataError, ResourceLimitError, FileNotFoundError, OSError) as exc:
        print(f"avembed: data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except NumericalError as exc:
        print(f"avembed: numerical error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except ValueError as exc:
        print(f"avembed: invalid arguments: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
