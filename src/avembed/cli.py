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
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import attention as att
from . import cca, clustering, deep
from . import evaluation as ev
from . import pipeline as pl
from . import retrieval as rt
from .blockio import _finite_number, field, read_json_object
from .clustering import (
    EMOTION_CATEGORIES,
    load_assignments,
    load_seed_sets,
    save_assignments,
    save_seed_sets,
)
from .data import SynthConfig, filter_manifest, load_manifest, write_dataset, write_manifest
from .errors import DataError, NumericalError, ValidationError

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERICAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


# One row per setting: name -> (type, default, help), a default the library declares read
# from there. The flag is --name-with-dashes (-n for n); a tuple type lists the allowed
# values; help None marks a key that only a --config file can set; null is a valid value
# where the default is None. Flags default to None so that --config values survive.
_OPTIONS: dict[str, tuple] = {
    "seed": (int, 0, "root seed"),
    "config": (str, None, "JSON config file; flags override its values"),
    "dataset": (str, None, "dataset directory"),
    "out": (str, None, "output path"),
    "out_dir": (str, None, "output directory"),
    "out_manifest": (str, None, "write the filtered manifest here"),
    "videos": (int, 100, "number of videos"),
    "clusters": (int, SynthConfig.n_clusters, "number of latent clusters"),
    "latent_dim": (int, SynthConfig.latent_dim, "latent dimension of the generator"),
    "noise_std": (float, SynthConfig.noise_std, "generator noise"),
    "length_min": (int, SynthConfig.length_range[0], "shortest video, seconds"),
    "length_max": (int, SynthConfig.length_range[1], "longest video, seconds"),
    "span_min": (int, None, "keep videos at least this long"),
    "span_max": (int, None, "keep videos at most this long"),
    "video_id": (str, None, "video to select chunks for or to query (chunk-select: all videos)"),
    "chunks": (int, 3, "macro-chunks per video"),
    "top_k": (int, 1, "macro-chunks kept"),
    "attention_weights": (str, None, "attention BiLSTM weights JSON"),
    "attention_seed": (int, 0, "seed of the stand-in attention weights"),
    "attention_hidden": (int, att.DEFAULT_DIM, "hidden width of the stand-in attention weights"),
    "seeds_file": (str, None, "seed-set JSON of exemplar videos per category"),
    "k": (int, None, "clusters; must equal the number of seed sets (default: one per set)"),
    "max_iter": (int, clustering.DEFAULT_MAX_ITER, "k-means iteration cap"),
    "tol": (float, clustering.DEFAULT_TOL, "k-means tolerance"),
    "method": (pl.METHODS, "cca", "embedding method"),
    "methods": (str, ",".join(pl.METHODS), "comma list among " + ",".join(pl.METHODS)),
    "labels": (str, None, "assignments JSONL from `cluster`"),
    "f": (float, 0.0, "cluster expansion fraction"),
    "target_pairs": (int, None, "cap on expanded pairs"),
    "r": (int, deep.TrainConfig.r, "CCA components"),
    "reg": (float, None, "covariance ridge (default: 1e-4 * trace / dim per view for cca and ccca, 1e-4 for "
                         "dcca and sdcca)"),
    "batch_size": (int, deep.TrainConfig.batch_size, "deep minibatch size"),
    "epochs": (int, deep.TrainConfig.epochs, "deep training epochs"),
    "learning_rate": (float, deep.TrainConfig.learning_rate, "RMSProp learning rate"),
    "dropout": (float, deep.TrainConfig.dropout, "dropout rate of the branches"),
    "rho": (float, deep.TrainConfig.rho, None),  # RMSProp decay
    "epsilon": (float, deep.TrainConfig.epsilon, None),  # RMSProp epsilon
    "kcca_beta": (float, cca.DEFAULT_KCCA_BETA, "Gaussian kernel width"),
    "kcca_kappa": (float, cca.DEFAULT_KCCA_KAPPA, "KCCA regularisation"),
    "audio_layers": (str, ",".join(map(str, deep.DEFAULT_AUDIO_LAYERS)), "audio branch widths"),
    "visual_layers": (str, ",".join(map(str, deep.DEFAULT_VISUAL_LAYERS)), "visual branch widths"),
    "query_mode": (str, "mean", "'mean' or 'c,k'"),
    "model": (str, None, "model file from `train`"),
    "index": (str, None, "index file from `index`"),
    "n": (int, 10, "results to return"),
    "folds": (int, ev.DEFAULT_FOLDS, "cross-validation folds"),
    "pr_stride": (int, ev.DEFAULT_PR_STRIDE, "precision-recall sampling stride"),
}
_DEFAULTS = {name: default for name, (_, default, _) in _OPTIONS.items()}
_COMMON = ("seed", "config")
_ATTENTION = ("attention_weights", "attention_seed", "attention_hidden")
# the settings that pipeline.train_method takes as they are
_FIT_ARGS = (
    "f", "target_pairs", "r", "reg", "batch_size", "epochs", "learning_rate", "dropout", "rho",
    "epsilon", "kcca_beta", "kcca_kappa",
)
# the settings that train and eval both read
_FIT = ("labels", *_FIT_ARGS, "audio_layers", "visual_layers", *_ATTENTION)


def _resolve(args: argparse.Namespace) -> dict:
    """The command's own settings: table defaults, overridden by --config, overridden by flags."""
    cfg = {name: _DEFAULTS[name] for name in _COMMANDS[args.command][2] + _COMMON}
    if args.config:
        from_file = read_json_object(args.config, "JSON config")
        # checked against the whole table, so one file can serve every command
        unknown = sorted(set(from_file) - set(_OPTIONS))
        if unknown:
            raise ValidationError(f"{args.config}: unknown config keys {unknown}")
        where = f"{args.config}: config"
        typed = {k: field(from_file, k, _OPTIONS[k][0], where, _OPTIONS[k][1] is None) for k in from_file}
        cfg.update((k, v) for k, v in typed.items() if k in cfg)
    cfg.update((k, v) for k, v in vars(args).items() if k in cfg and v is not None)
    for name in ("seed", "attention_seed"):
        if cfg.get(name, 0) < 0:
            raise ValueError(f"{name} must be >= 0, got {cfg[name]}")
    return cfg


def _finite_float(text: str) -> float:
    """The argparse type of every float flag: a finite number, as a --config file's float must be."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not _finite_number(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _int_tuple(text: str, option: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"{option}: expected comma-separated integers, got {text!r}") from exc


def _attention_params(cfg: dict, input_dim: int) -> att.AttentionParams:
    path = cfg.get("attention_weights")
    if path:
        params = att.load_attention_params(path)
        if params.forward_lstm.input_dim != input_dim:
            raise ValidationError(
                f"{path}: attention weights take {params.forward_lstm.input_dim}-d chunk features, "
                f"the dataset's audio features are {input_dim}-d"
            )
        return params
    hidden = cfg["attention_hidden"]
    if hidden < 1:
        raise ValueError(f"attention_hidden must be >= 1, got {hidden}")
    return att.random_attention_params(input_dim, hidden, hidden, seed=cfg["attention_seed"])


def _prepare(
    cfg: dict, modes: list[pl.Mode], ids: list[str] | None = None, check_all: bool = False
) -> pl.PreparedDataset:
    """The dataset (or its videos named by ids), each chunk mode of modes scored by the
    --attention-* scorer; see pipeline.prepare_dataset for check_all."""
    return pl.prepare_dataset(
        cfg["dataset"], ids=ids, modes=modes, scorer=partial(_attention_params, cfg), check_all=check_all
    )


def _fit_kwargs(cfg: dict) -> dict:
    """Keyword arguments of pipeline.train_method."""
    layers = {
        name: _int_tuple(cfg[name], "--" + name.replace("_", "-")) for name in ("audio_layers", "visual_layers")
    }
    return {**{name: cfg[name] for name in ("seed", *_FIT_ARGS)}, **layers}


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
    return {**{k: v for k, v in sorted(cfg.items()) if k not in skip}, **extra}


def cmd_synth(cfg: dict) -> int:
    out = Path(cfg["out"])
    synth = SynthConfig(
        n_videos=cfg["videos"],
        n_clusters=cfg["clusters"],
        latent_dim=cfg["latent_dim"],
        noise_std=cfg["noise_std"],
        length_range=(cfg["length_min"], cfg["length_max"]),
        seed=cfg["seed"],
    )
    manifest = write_dataset(synth, out)
    names = (
        list(EMOTION_CATEGORIES)
        if synth.n_clusters == len(EMOTION_CATEGORIES)
        else [f"cluster_{i:02d}" for i in range(synth.n_clusters)]
    )
    # a category per cluster that holds a video: with fewer videos than clusters some hold none
    labels = np.array([e.label for e in manifest.entries])
    exemplars, _ = pl.seed_sets_from_labels(np.array([e.video_id for e in manifest.entries]), labels)
    save_seed_sets({names[c]: v.tolist() for c, v in zip(np.unique(labels), exemplars)}, out / "seeds.json")
    lo, hi = manifest.length_span
    print(
        f"wrote {len(manifest)} videos to {out} "
        f"(lengths {lo}..{hi}, {synth.n_clusters} clusters, seed {synth.seed})"
    )
    return 0


def cmd_ingest(cfg: dict) -> int:
    root = Path(cfg["dataset"])
    manifest = load_manifest(root / "manifest.jsonl")
    if cfg["span_min"] is not None or cfg["span_max"] is not None:
        lo = cfg["span_min"] if cfg["span_min"] is not None else manifest.length_span[0]
        hi = cfg["span_max"] if cfg["span_max"] is not None else manifest.length_span[1]
        manifest = filter_manifest(manifest, (lo, hi))
        if len(manifest) == 0:
            raise ValidationError(f"no entries with length in [{lo}, {hi}]")
    prepared = pl.prepare_dataset(root, ids=[e.video_id for e in manifest.entries])
    if cfg.get("out_manifest"):
        write_manifest(manifest, cfg["out_manifest"])
    labelled = sum(1 for e in manifest.entries if e.label is not None)
    lo, hi = manifest.length_span
    print(
        f"ok: {len(manifest)} videos, lengths {lo}..{hi}, feature dims "
        f"{prepared.audio_mean.shape[1]}/{prepared.visual.shape[1]}, {labelled} labelled"
    )
    return 0


def cmd_chunk_select(cfg: dict) -> int:
    ids = [cfg["video_id"]] if cfg.get("video_id") else None
    c, k = cfg["chunks"], cfg["top_k"]
    prepared = _prepare(cfg, [(c, k)], ids)
    results = [
        {"video_id": vid, "chunks": c, "top_k": k, "selected": selected.tolist(), "scores": scores.tolist()}
        for vid, selected, scores in zip(prepared.ids, *prepared.selections[c, k])
    ]
    text = "\n".join(json.dumps(r) for r in results)
    if cfg.get("out"):
        Path(cfg["out"]).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _check_k(cfg: dict, sets: int) -> None:
    if cfg["k"] is not None and cfg["k"] != sets:
        raise ValidationError(f"--k {cfg['k']} does not match the {sets} seed sets")


def cmd_cluster(cfg: dict) -> int:
    # a seeds file's sets are counted before the corpus is read; the manifest's once it is
    categories = load_seed_sets(cfg["seeds_file"]) if cfg.get("seeds_file") else None
    if categories is not None:
        _check_k(cfg, len(categories))
    prepared = pl.prepare_dataset(cfg["dataset"])
    seed_vectors = None
    if categories is not None:
        rows = {v: i for i, v in enumerate(prepared.ids)}
        seed_vectors = []
        for name, vids in categories.items():
            missing = [v for v in vids if v not in rows]
            if missing:
                raise ValidationError(f"seed category {name!r} references unknown videos {missing}")
            seed_vectors.append(prepared.audio_mean[[rows[v] for v in vids]])
    model = pl.cluster_dataset(prepared, seed_vectors, max_iter=cfg["max_iter"], tol=cfg["tol"])
    _check_k(cfg, model.k)
    save_assignments(prepared.ids, model.labels, cfg["out"])
    sizes = np.bincount(model.labels, minlength=model.k)
    print(
        f"clustered {len(prepared)} videos into {model.k} groups in {model.iterations_run} iterations "
        f"(inertia {model.inertia:.4f}, sizes {sizes.tolist()}) -> {cfg['out']}"
    )
    return 0


def _query_mode(cfg: dict) -> pl.Mode:
    """--query-mode as 'mean' or a checked (c, k) chunk config; ValidationError if it is neither."""
    mode = cfg["query_mode"]
    if mode == "mean":
        return mode
    ck = _int_tuple(mode, "--query-mode")
    if len(ck) != 2:
        raise ValidationError(f"--query-mode must be 'mean' or two integers 'c,k', got {mode!r}")
    pl.check_chunk_config(*ck)
    return ck


def cmd_train(cfg: dict) -> int:
    mode = _query_mode(cfg)
    prepared = _prepare(cfg, [mode])
    method = cfg["method"]
    audio = prepared.queries[mode]
    labels = _labels_for(prepared, cfg) if method in pl.SUPERVISED else None
    model = pl.train_method(method, audio, prepared.visual, labels, **_fit_kwargs(cfg))
    pl.save_model(model, cfg["out"], extra=_config_echo(cfg, command="train"))
    dims = {"audio": audio.shape[1], "visual": prepared.visual.shape[1]}
    wide = [f"{side} ({dim})" for side, dim in dims.items() if dim >= len(audio)]
    if method in ("cca", "ccca") and wide:
        print(
            f"note: {len(audio)} training rows, no more than the {' and '.join(wide)} feature dims: linear CCA can "
            "match them perfectly, so its canonical correlations say nothing about the features",
            file=sys.stderr,
        )
    null = int(np.sum(model.correlations <= 1e-10))
    if null:
        print(f"note: {null} of the r={model.r} canonical correlations are <= 1e-10", file=sys.stderr)
    print(f"trained {method} (r={model.r}, top correlation {model.correlations[0]:.4f}) -> {cfg['out']}")
    return 0


def cmd_index(cfg: dict) -> int:
    prepared = pl.prepare_dataset(cfg["dataset"])
    _, embed_visual = pl.embedders(pl.load_model(cfg["model"]), f"model {cfg['model']}")
    labels = _labels_for(prepared, cfg)
    index = rt.build_index(embed_visual(prepared.visual), labels, prepared.ids)
    rt.save_index(index, cfg["out"])
    print(f"indexed {len(index)} videos (width {index.r}) -> {cfg['out']}")
    return 0


def cmd_query(cfg: dict) -> int:
    mode = _query_mode(cfg)
    if cfg["n"] < 1:  # as retrieval.rank would, but before the corpus is read
        raise ValueError(f"n must be >= 1, got {cfg['n']}")
    vid = cfg["video_id"]
    # every video is read and checked, and only the queried one pooled and scored
    prepared = _prepare(cfg, [mode], [vid], check_all=True)
    index = rt.load_index(cfg["index"])
    model = pl.load_model(cfg["model"])
    if model.r != index.r:
        raise ValidationError(
            f"model {cfg['model']} embeds in {model.r} dimensions, index {cfg['index']} holds {index.r}"
        )
    embed_audio, _ = pl.embedders(model, f"model {cfg['model']}")
    query_vec = embed_audio(prepared.queries[mode])[0]
    ranked = rt.rank(index, query_vec, n=cfg["n"], query_id=vid)
    for video_id, sim in ranked.items:
        print(json.dumps({"video_id": video_id, "similarity": sim}))
    return 0


def cmd_eval(cfg: dict) -> int:
    methods = [m.strip() for m in cfg["methods"].split(",") if m.strip()]
    unknown = [m for m in methods if m not in pl.METHODS]
    if unknown or not methods:
        raise ValidationError(f"--methods {cfg['methods']!r} must list methods among {pl.METHODS}")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValidationError(f"--methods {cfg['methods']!r} lists {', '.join(repeated)} more than once")
    folds = cfg["folds"]
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if cfg["pr_stride"] < 1:
        raise ValueError("pr_stride must be >= 1")
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    prepared = _prepare(cfg, [mode for _, _, mode in pl.SWEEP_CONFIGS])
    labels = _labels_for(prepared, cfg)
    fit_kwargs = _fit_kwargs(cfg)

    matrix_rows = []
    failures = []
    for method in methods:
        row = [method]
        for head, name, mode in pl.SWEEP_CONFIGS:
            cell_cfg = _config_echo(cfg, method=method, query_config=head, command="eval", folds=folds)
            try:
                report = ev.cross_validate(
                    prepared.queries[mode],
                    prepared.visual,
                    labels,
                    prepared.ids,
                    lambda a, v, lab: pl.embedders(pl.train_method(method, a, v, lab, **fit_kwargs)),
                    folds=folds,
                    seed=cfg["seed"],
                    pr_stride=cfg["pr_stride"],
                    config=cell_cfg,
                )
            except (DataError, NumericalError, ValueError) as exc:
                print(f"eval cell {method}/{head} failed: {exc}", file=sys.stderr)
                failures.append((method, head))
                row.append("error")
                continue
            ev.pr_curve_export(report, out_dir / f"pr_{method}_{name}.csv")
            ev.report_to_json(report, out_dir / f"report_{method}_{name}.json")
            row.append(repr(report.map_score))
            print(f"{method:6s} {head:4s} MAP={report.map_score:.4f}")
        matrix_rows.append(row)

    lines = ["method," + ",".join(head for head, _, _ in pl.SWEEP_CONFIGS)]
    lines.extend(",".join(row) for row in matrix_rows)
    (out_dir / "map_matrix.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out_dir / 'map_matrix.csv'}")
    if failures:
        print(f"{len(failures)} cell(s) failed: {failures}", file=sys.stderr)
        return DATA_EXIT
    return 0


# command -> (handler, help, option names, required names); every command also
# takes _COMMON
_COMMANDS = {
    "synth": (
        cmd_synth, "generate a synthetic clustered dataset directory",
        ("out", "videos", "clusters", "latent_dim", "noise_std", "length_min", "length_max"), ("out",),
    ),
    "ingest": (
        cmd_ingest, "validate a dataset directory, optionally filter by length span",
        ("dataset", "span_min", "span_max", "out_manifest"), ("dataset",),
    ),
    "chunk-select": (
        cmd_chunk_select, "score and select representative audio chunks",
        ("dataset", "video_id", "chunks", "top_k", *_ATTENTION, "out"), ("dataset",),
    ),
    "cluster": (
        cmd_cluster, "seeded k-means over video-level audio features",
        ("dataset", "seeds_file", "k", "max_iter", "tol", "out"), ("dataset", "out"),
    ),
    "train": (
        cmd_train, "fit one embedding method and write a model file",
        ("dataset", "method", "out", "query_mode", *_FIT), ("dataset", "out"),
    ),
    "index": (
        cmd_index, "embed visual features and write a retrieval index",
        ("dataset", "model", "labels", "out"), ("dataset", "model", "out"),
    ),
    "query": (
        cmd_query, "rank indexed videos against one audio query",
        ("dataset", "index", "model", "video_id", "n", "query_mode", *_ATTENTION),
        ("dataset", "index", "model", "video_id"),
    ),
    "eval": (
        cmd_eval, "cross-validated MAP matrix over the chunk-config sweep",
        ("dataset", "out_dir", "methods", "folds", "pr_stride", *_FIT), ("dataset", "out_dir"),
    ),
}


@cache  # one parser per process: a parse reads it and changes nothing in it
def build_parser() -> _Parser:
    parser = _Parser(prog="avembed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, names, required) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in names + _COMMON:
            kind, default, text = _OPTIONS[name]
            if text is None:
                continue
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument(
                "-n" if name == "n" else "--" + name.replace("_", "-"),
                dest=name,
                type=None if choices else _finite_float if kind is float else kind,
                choices=choices,
                required=name in required,
                help=text if default is None else f"{text} (default {default})",
            )
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(_resolve(args))
    except (DataError, OSError) as exc:
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
