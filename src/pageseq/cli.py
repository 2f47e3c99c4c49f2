"""Command-line surface for the full pipeline.

Subcommands: gen-synth, audit, train, eval, range-test, predict.  Every
training run directory is self-describing (resolved config, seed, code
version, corpus and FM paths), so re-running from the saved config at
thread-count 1 reproduces checkpoints byte for byte from any directory.

Exit codes: 0 success, 1 usage or config error, 2 data-validation
error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import inspect
import json
import subprocess
import sys
from collections import namedtuple
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from . import crf as crf_ops
from .checkpoint import CheckpointIOError, load_checkpoint, params_digest
from .corpus import (SPLITS, CorpusError, audit_splits, iter_pages,
                     load_corpus, save_corpus)
from .experiments import fm_probability_sequences, seq_dataset, train_fm_crf
from .fusion import (EmbeddingWidthError, FusionConfig, FusionModule,
                     corpus_embedding_dims, embedding_arrays, fusion_grid,
                     fusion_setup, train_fusion)
from .iob import CLASSES, IOB_TAGS, iob_collapse, iob_encode
from .metrics import score, score_by_first_page
from .runconfig import (ConfigError, apply_section, dump_config, load_config,
                        section_value)
from .schedule import TooFewSteps, lr_range_test
from .seqmodels import (VARIANTS, SeqModel, SeqModelConfig, label_lawsuits,
                        train_seq)
from .synth import SynthConfig, generate_synthetic
from .tensor import RngState
from .text import Vocab
from .textcnn import (TextCnn, TextCnnConfig, encode_pages, text_cnn_setup,
                      train_text_cnn)
from .training import (TrainingDiverged, iterate_minibatches, label_pages,
                       train_step)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def code_version() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10,
                             cwd=Path(__file__).parent)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return f"pageseq-{__version__}"


def _write_run_files(out_dir: Path, resolved: dict):
    (out_dir / "config.txt").write_text(dump_config(
        {**resolved, "code.version": code_version()}), encoding="utf-8")


def _check_read(cfg, read):
    """Raises ``ConfigError`` naming the first key of ``cfg`` that is not
    in ``read``."""
    unread = sorted(set(cfg) - set(read))
    if unread:
        raise ConfigError(f"unknown config key {unread[0]!r}")


# ---------------------------------------------------------------- gen-synth

# what gen-synth writes to config.txt beside the synth.* settings
SYNTH_OUTPUTS = ("synth.config_hash", "code.version")


def cmd_gen_synth(args):
    config = SynthConfig()
    if args.config:
        file_cfg = load_config(args.config)
        settings = {k: v for k, v in file_cfg.items()
                    if k not in SYNTH_OUTPUTS}
        _check_read(file_cfg, apply_section(config, "synth", settings)
                    | set(SYNTH_OUTPUTS))
    if args.seed is not None:  # synth.seed is checked with the config
        _check_min(args.seed, 0, "--seed")
        config.seed = args.seed
    corpus = generate_synthetic(config)
    out = Path(args.out)
    save_corpus(corpus, out)
    _write_run_files(out, {**{f"synth.{f.name}": getattr(config, f.name)
                              for f in dataclasses.fields(config)},
                           "synth.config_hash": config.config_hash()})
    report = audit_splits(corpus)
    print(json.dumps({"out": str(out), "config_hash": config.config_hash(),
                      "pages": {s: report["missing"][s]["pages"]
                                for s in SPLITS}}, indent=2))
    return EXIT_OK


# -------------------------------------------------------------------- audit

def cmd_audit(args):
    report = audit_splits(load_corpus(args.corpus))
    print(json.dumps(report, ensure_ascii=False, indent=2))
    return EXIT_OK


# ------------------------------------------------------------ the families

# What a family trains from: the --model name, corpus, model config,
# --fm-checkpoint model, SETTINGS by keyword, --out and --verbose.
TrainRun = namedtuple("TrainRun", "name corpus config fm settings out verbose")

# A training setting's trainer keyword (the dest of its flag): its flag,
# its config key and its least value (None for a rate).
SETTINGS = {"seed": ("--seed", "train.seed", 0),
            "epochs": ("--epochs", "train.epochs", 1),
            "batch_size": ("--batch-size", "train.batch_size", 2),
            "max_lr": ("--max-lr", "train.lr", None)}


def _page_tags(corpus, split, labels):
    """A page family's IOB tags of the split: ``labels(pages)``, with B-
    from the pages' first-page flags."""
    pages = list(iter_pages(corpus, split))
    return iob_encode(labels(pages), [p.is_first_page for p in pages])


def _fusion_grid(run):
    results = fusion_grid(run.corpus, run.config, **run.settings)
    (run.out / "grid_results.json").write_text(
        json.dumps(results, indent=2), encoding="utf-8")
    for name, val in results.items():
        print(f"{name:12s} val macro-F1 {100 * val:.2f}")
    return max(results.values())


def _seq_config(name, corpus, fm):
    config = SeqModelConfig(variant=name, input_dim=fm.config.hidden)
    if config.fusion_input:
        config.input_dim = fm.config.concat_dim
    return config


def _seq_data(corpus, fm, config):
    return seq_dataset(corpus, fm, "concat" if config.fusion_input
                       else "hidden")


@dataclasses.dataclass(frozen=True)
class Family:
    """How the CLI builds, trains, restores and applies one kind of
    model; FAMILIES maps each --model name to one.  The trainer's
    keyword defaults are the defaults of the SETTINGS."""

    config: Callable  # (name, corpus, fm) -> model config, or None
    trainer: Callable  # (**inputs, **settings, out_path, verbose) -> ..., log
    inputs: Callable  # (TrainRun) -> the trainer's other keywords
    model: Callable  # (meta config, seed, vocab or fm) -> model to restore
    predict: Callable  # (model, vocab or fm, corpus, split) -> IOB tags
    needs_fm: bool = False  # reads --fm-checkpoint
    vocab: bool = False  # reads vocab.txt
    # range-test: (name, corpus, config, seed) -> (model, n, loss_fn)
    setup: Callable | None = None
    grid: Callable | None = None  # train --grid: (TrainRun) -> as train

    def default(self, setting):
        """The trainer's default of the keyword ``setting``."""
        return inspect.signature(self.trainer).parameters[setting].default

    def train(self, run):
        """Trains the run's model and writes its epoch log; returns the
        best validation macro-F1."""
        log = self.trainer(**self.inputs(run), **run.settings,
                           out_path=run.out / "model.ckpt",
                           verbose=run.verbose)[-1]
        log.save(run.out / "train_log.jsonl")
        return max(r.val_macro_f1 for r in log.rows)


TEXT_CNN = Family(
    config=lambda name, corpus, fm: TextCnnConfig(),
    trainer=train_text_cnn,
    inputs=lambda run: dict(corpus=run.corpus, config=run.config,
                            weighted=run.name.endswith("-w")),
    model=lambda c, seed, vocab: TextCnn(len(vocab), TextCnnConfig(**c),
                                         seed=seed),
    predict=lambda model, vocab, corpus, split: _page_tags(
        corpus, split, lambda pages: label_pages(model, [encode_pages(
            pages, vocab, model.config.max_tokens)])),
    setup=lambda name, corpus, config, seed: text_cnn_setup(
        corpus, config, name.endswith("-w"), seed)[:3],
    vocab=True)
FUSION = Family(
    config=lambda name, corpus, fm: FusionConfig(
        *corpus_embedding_dims(corpus),
        missing_mode="zero" if name.endswith("-zero") else "learned"),
    trainer=train_fusion,
    inputs=lambda run: dict(corpus=run.corpus, config=run.config),
    model=lambda c, seed, _: FusionModule(FusionConfig(**c), seed=seed),
    predict=lambda model, _, corpus, split: _page_tags(
        corpus, split, lambda pages: label_pages(model, embedding_arrays(
            pages, model.config.text_dim, model.config.image_dim)[:4])),
    setup=lambda name, corpus, config, seed: fusion_setup(corpus, config,
                                                          seed),
    grid=_fusion_grid)
# crf and the bilstm families batch lawsuits, the others pages
FM_CRF = Family(
    config=lambda name, corpus, fm: None,
    trainer=train_fm_crf,
    inputs=lambda run: dict(corpus=run.corpus, fm=run.fm),
    model=lambda c, seed, _: crf_ops.CrfModel(**c),
    predict=lambda model, fm, corpus, split: label_lawsuits(
        model.decode, fm_probability_sequences(corpus, fm, split)),
    needs_fm=True)
SEQ = Family(
    config=_seq_config,
    trainer=train_seq,
    inputs=lambda run: dict(
        lawsuit_inputs=_seq_data(run.corpus, run.fm, run.config),
        config=run.config, fm_digest=params_digest(run.fm.state_dict())),
    model=lambda c, seed, _: SeqModel(SeqModelConfig(**c), seed=seed),
    predict=lambda model, fm, corpus, split: label_lawsuits(
        model.decode,
        _seq_data({split: corpus[split]}, fm, model.config)[split]),
    needs_fm=True)
FAMILIES = {"textcnn": TEXT_CNN, "textcnn-w": TEXT_CNN, "fusion": FUSION,
            "fusion-zero": FUSION, "crf": FM_CRF,
            **{variant: SEQ for variant in VARIANTS}}
TRAIN_MODELS = tuple(FAMILIES)
RANGE_TEST_MODELS = tuple(name for name, f in FAMILIES.items() if f.setup)
# the class or tag count that a family's metas stored before its model
# took it from iob
OLD_META_COUNTS = {TEXT_CNN: ("classes", len(CLASSES)),
                   FUSION: ("classes", len(CLASSES)),
                   SEQ: ("n_tags", len(IOB_TAGS))}


# what train writes to config.txt beside the model.* and SETTINGS keys
TRAIN_OUTPUTS = ("train.model", "train.corpus", "train.fm_checkpoint",
                 "code.version")


def _model_config(name, corpus, fm, cfg):
    """The family's model config with the ``model.*`` keys of ``cfg``.
    A key of ``cfg`` that is not one of its fields, a SETTINGS key or one
    of TRAIN_OUTPUTS raises ``ConfigError`` naming it."""
    config = FAMILIES[name].config(name, corpus, fm)
    read = {key for _, key, _ in SETTINGS.values()} | set(TRAIN_OUTPUTS)
    if config is not None:
        read |= apply_section(config, "model", cfg)
    _check_read(cfg, read)
    return config


def _restore(path, params, meta, family, aux=None):
    """The family's model for the checkpoint's meta config and seed,
    holding the checkpoint's parameters.  The count that older metas
    store (OLD_META_COUNTS) is dropped when it is the pipeline's.  A
    config or a parameter set that does not fit the model raises
    ``CheckpointIOError`` naming the file."""
    try:
        config = dict(meta["config"])
        if family in OLD_META_COUNTS:
            key, count = OLD_META_COUNTS[family]
            stored = config.pop(key, count)
            if stored != count:
                raise ValueError(f"config {key} is {stored!r}, not the "
                                 f"pipeline's {count}")
        model = family.model(config, meta.get("seed", 0), aux)
        model.load_state(params)
    except (KeyError, TypeError, ValueError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise CheckpointIOError(f"{path}: {detail}") from None
    return model


def _upstream_fm(args, name, action, digest=None):
    """The --fm-checkpoint fusion module, for a family that reads one; a
    family that reads none refuses the flag with a ``ConfigError``, as
    an unread config key is refused.  A ``digest`` (of the FM a
    checkpoint was trained over) that is not its ``params_digest``
    raises ``CheckpointIOError`` naming both files."""
    if not FAMILIES[name].needs_fm:
        if args.fm_checkpoint:
            raise ConfigError(f"{name} {action} reads no --fm-checkpoint")
        return None
    if not args.fm_checkpoint:
        raise ConfigError(f"{name} {action} needs --fm-checkpoint")
    params, meta = load_checkpoint(args.fm_checkpoint)
    if meta.get("model") not in ("fusion", "fusion-zero"):
        raise CheckpointIOError(f"{args.fm_checkpoint}: not a fusion "
                                f"checkpoint (model={meta.get('model')!r})")
    fm = _restore(args.fm_checkpoint, params, meta, FUSION)
    if digest is not None and digest != params_digest(fm.state_dict()):
        raise CheckpointIOError(
            f"{args.model_checkpoint} was trained over another fusion "
            f"checkpoint than {args.fm_checkpoint}: their parameter "
            "digests differ")
    return fm


@contextlib.contextmanager
def _widths_named(path):
    """Names ``path``, the checkpoint that set the embedding widths, in
    an ``EmbeddingWidthError``."""
    try:
        yield
    except EmbeddingWidthError as exc:
        raise CheckpointIOError(f"{path}: {exc}") from None


def _load_vocab(args, params, meta) -> Vocab:
    """The --vocab file, else the vocab.txt beside the checkpoint.  One
    that is not the vocabulary the checkpoint was trained with raises
    ``CheckpointIOError`` naming both files: by the meta's digest, or for
    a checkpoint without one, by the embedding's row count."""
    path = args.vocab or Path(args.model_checkpoint).with_name("vocab.txt")
    if not Path(path).exists():
        raise ConfigError(f"vocabulary file not found: {path} "
                          "(pass --vocab)")
    vocab = Vocab.load(path)
    digest = meta.get("vocab_digest")
    weight = params.get("embedding.weight")  # _restore names it if missing
    if digest is not None and digest != vocab.digest():
        detail = "their digests differ"
    elif digest is None and weight is not None and len(weight) != len(vocab):
        detail = (f"its embedding has {len(weight)} rows, the vocabulary "
                  f"{len(vocab)} ids")
    else:
        return vocab
    raise CheckpointIOError(f"{args.model_checkpoint} was trained with "
                            f"another vocabulary than {path}: {detail}")


# -------------------------------------------------------------------- train

def _run_config(args, grid=False):
    """The --config keys of train or range-test; a key that the corpus
    sets, or with ``grid`` the sweep, raises ``ConfigError``."""
    cfg = load_config(args.config) if args.config else {}
    swept = ("model.hidden", "model.missing_mode") if grid else ()
    for key in ("model.text_dim", "model.image_dim", *swept):
        if key in cfg:
            raise ConfigError(f"{'--grid' if key in swept else 'the corpus'} "
                              f"sets {key}; drop it from {args.config}")
    return cfg


def _settings(args, cfg, family):
    """The SETTINGS ``args`` has flags for: the flag, else the config's
    ``train.*`` key, else the trainer's default.  A bad value names its
    source.  Returns ({keyword: value}, {keyword: source})."""
    settings, sources = {}, {}
    for keyword, (flag, key, low) in SETTINGS.items():
        if not hasattr(args, keyword):
            continue  # range-test has no --epochs or --max-lr
        value, source = getattr(args, keyword), flag
        if value is None:
            value = section_value(cfg, key, family.default(keyword))
            source = key if key in cfg else f"the default of {flag}"
        if low is None:
            _check_lr(value, source)
        else:
            _check_min(value, low, source)
        settings[keyword], sources[keyword] = value, source
    return settings, sources


def _check_min(value, low, option):
    # numpy seeds are >= 0; a one-item step gives BatchNorm a single row;
    # a run needs an epoch, a range test two rates
    if value < low:
        raise ConfigError(f"{option} must be at least {low}, got {value}")


def _check_lr(value, option):
    if not 0 < value < float("inf"):  # NaN too
        raise ConfigError(f"{option} must be finite and above 0, got {value}")


def cmd_train(args):
    family = FAMILIES[args.model]
    if args.grid and family.grid is None:
        raise ConfigError(f"--grid needs a fusion model, not {args.model}")
    cfg = _run_config(args, args.grid)
    settings, sources = _settings(args, cfg, family)
    corpus = load_corpus(args.corpus)
    out = Path(args.out)
    fm = _upstream_fm(args, args.model, "training")
    run = TrainRun(args.model, corpus,
                   _model_config(args.model, corpus, fm, cfg), fm, settings,
                   out, args.verbose)
    out.mkdir(parents=True, exist_ok=True)
    try:
        # numpy's overflow warnings would print before the error below;
        # the run stops at fit's loss check or the keeper's parameter check
        with _widths_named(args.fm_checkpoint), \
                np.errstate(over="ignore", invalid="ignore"):
            best = family.grid(run) if args.grid else family.train(run)
    except TrainingDiverged as exc:
        raise ValueError(f"{exc}; the learning rate {settings['max_lr']:g} "
                         f"set by {sources['max_lr']} is too high") from None
    except TooFewSteps as exc:
        raise ConfigError(
            f"{exc}: {settings['epochs']} epochs set by {sources['epochs']} "
            f"of batches of {settings['batch_size']} set by "
            f"{sources['batch_size']}") from None
    resolved = {k: v for k, v in cfg.items() if k not in TRAIN_OUTPUTS}
    if family.needs_fm:
        resolved["train.fm_checkpoint"] = args.fm_checkpoint
    _write_run_files(out, {**resolved, "train.model": args.model,
                           "train.corpus": str(args.corpus),
                           **{key: settings[keyword]
                              for keyword, (_, key, _) in SETTINGS.items()}})
    print(f"best validation macro-F1 {100 * best:.2f}")
    return EXIT_OK


# --------------------------------------------------------------------- eval

def _predictions(args):
    """The --split's pages and their predicted IOB tags.  A --vocab that
    the checkpoint's family does not read is refused first."""
    params, meta = load_checkpoint(args.model_checkpoint)
    name = meta.get("model")
    family = FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise CheckpointIOError(f"unknown model family {name!r} in "
                                f"{args.model_checkpoint}")
    if args.vocab and not family.vocab:
        raise ConfigError(f"{name} evaluation reads no --vocab")
    fm = _upstream_fm(args, name, "evaluation", meta.get("fm_digest"))
    aux = _load_vocab(args, params, meta) if family.vocab else fm
    model = _restore(args.model_checkpoint, params, meta, family, aux)
    corpus = load_corpus(args.corpus)
    with _widths_named(args.fm_checkpoint if family.needs_fm
                       else args.model_checkpoint):
        tags = family.predict(model, aux, corpus, args.split)
    return list(iter_pages(corpus, args.split)), tags


def cmd_eval(args):
    pages, tags = _predictions(args)
    gold, preds = [p.label for p in pages], iob_collapse(tags)
    report = score(gold, preds, CLASSES)
    out = {"split": args.split, "report": report.to_dict()}
    if args.by_first_page:
        first, interior = score_by_first_page(
            gold, preds, [p.is_first_page for p in pages], CLASSES)
        out["first_page"] = first.to_dict()
        out["interior"] = interior.to_dict()
    print(json.dumps(out, ensure_ascii=False, indent=2))
    print(report.to_text(), file=sys.stderr)
    return EXIT_OK


# ------------------------------------------------------------------ predict

def cmd_predict(args):
    pages, tags = _predictions(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        for page, p, t in zip(pages, iob_collapse(tags), tags):
            fh.write(json.dumps({"lawsuit_id": page.lawsuit_id,
                                 "page_index": page.page_index,
                                 "gold": page.label, "pred": p,
                                 "pred_tag": t}, ensure_ascii=False) + "\n")
    print(f"wrote {len(pages)} predictions to {args.out}")
    return EXIT_OK


# --------------------------------------------------------------- range-test

def cmd_range_test(args):
    _check_lr(args.lr_min, "--lr-min")
    _check_lr(args.lr_max, "--lr-max")
    _check_min(args.steps, 2, "--steps")
    if args.lr_min >= args.lr_max:
        raise ConfigError(f"--lr-min {args.lr_min} must be below "
                          f"--lr-max {args.lr_max}")
    family = FAMILIES[args.model]
    cfg = _run_config(args)
    settings, _ = _settings(args, cfg, family)
    corpus = load_corpus(args.corpus)
    config = _model_config(args.model, corpus, None, cfg)
    model, n, loss_fn = family.setup(args.model, corpus, config,
                                     settings["seed"])
    rng = RngState(settings["seed"]).consumer("range-test-shuffle")

    def batches():
        while True:
            yield from iterate_minibatches(n, settings["batch_size"], rng)

    result = lr_range_test(train_step(model, loss_fn), batches(),
                           args.lr_min, args.lr_max, args.steps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "range_test.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lr", "smoothed_loss", "raw_loss"])
        for lr, s, r in zip(result.lrs, result.smoothed_losses,
                            result.raw_losses):
            writer.writerow([f"{lr:.8g}", f"{s:.8g}", f"{r:.8g}"])
    (out / "suggested_lr.json").write_text(
        json.dumps({"suggested_lr": result.suggested_lr}), encoding="utf-8")
    print(f"suggested max lr: {result.suggested_lr:.6g}")
    return EXIT_OK


# --------------------------------------------------------------------- main

def _default_help(setting, models):
    """``setting``'s defaults for --help: the config key, else the
    trainer's default that most of ``models`` share, then the others."""
    groups = {}
    for name in models:
        groups.setdefault(FAMILIES[name].default(setting), []).append(name)
    common = max(groups, key=lambda value: len(groups[value]))
    others = "; ".join(f"{value:g} for {', '.join(names)}"
                       for value, names in groups.items() if value != common)
    return f"default {SETTINGS[setting][1]}, else {common:g}" + (
        f" ({others})" if others else "")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pageseq",
                     description="sequence-aware multimodal page classification")
    parser.add_argument("--version", action="version",
                        version=f"pageseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic corpus")
    p.add_argument("--config", help="flat key=value SynthConfig overrides")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("audit", help="load a corpus, which checks it, and "
                       "report its class counts and missing modalities")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("train", help="train one model family")
    p.add_argument("--model", required=True, choices=TRAIN_MODELS)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int,
                   help=_default_help("seed", TRAIN_MODELS))
    p.add_argument("--epochs", type=int,
                   help=_default_help("epochs", TRAIN_MODELS))
    p.add_argument("--batch-size", type=int,
                   help="pages per step, or lawsuits for crf and the bilstm "
                        "families; " + _default_help("batch_size",
                                                     TRAIN_MODELS))
    p.add_argument("--max-lr", type=float,
                   help=_default_help("max_lr", TRAIN_MODELS))
    p.add_argument("--grid", action="store_true",
                   help="fusion only: run the four-config sweep")
    p.add_argument("--fm-checkpoint",
                   help="upstream fusion checkpoint (crf / bilstm families)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    # eval and predict read a checkpoint the same way; each has one flag
    # of its own, after --split
    for name, func, about, (flag, kw) in [
            ("eval", cmd_eval, "evaluate a checkpoint on a split",
             ("--by-first-page", dict(action="store_true"))),
            ("predict", cmd_predict, "write per-page predictions",
             ("--out", dict(required=True)))]:
        p = sub.add_parser(name, help=about)
        p.add_argument("--model-checkpoint", required=True)
        p.add_argument("--corpus", required=True)
        p.add_argument("--split", default="test", choices=SPLITS)
        p.add_argument(flag, **kw)
        p.add_argument("--vocab", help=" and ".join(
            n for n, f in FAMILIES.items() if f.vocab) + " only: vocabulary "
            "file, default the vocab.txt beside the checkpoint")
        p.add_argument("--fm-checkpoint")
        p.set_defaults(func=func)

    p = sub.add_parser("range-test", help="learning-rate range test")
    p.add_argument("--model", required=True, choices=RANGE_TEST_MODELS)
    p.add_argument("--corpus", required=True)
    p.add_argument("--lr-min", type=float, required=True)
    p.add_argument("--lr-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--batch-size", type=int, help="pages per step; " +
                   _default_help("batch_size", RANGE_TEST_MODELS))
    p.add_argument("--seed", type=int,
                   help=_default_help("seed", RANGE_TEST_MODELS))
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_range_test)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CorpusError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (CheckpointIOError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
