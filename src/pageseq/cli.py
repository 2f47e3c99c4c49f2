"""Command-line surface for the full pipeline.

Subcommands: gen-synth, audit, train, eval, range-test, predict.  Every
training run directory is self-describing (resolved config, seed, code
version), so re-running from the saved config at thread-count 1
reproduces checkpoints bit-exactly.

Exit codes: 0 success, 1 usage or config error, 2 data-validation
error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import subprocess
import sys
from collections import namedtuple
from pathlib import Path
from typing import Callable

from . import __version__
from . import crf as crf_ops
from .checkpoint import CheckpointIOError, load_checkpoint, params_digest
from .corpus import (SPLITS, CorpusError, audit_splits, iter_pages,
                     load_corpus, save_corpus)
from .experiments import fm_probability_sequences, seq_dataset, train_fm_crf
from .fusion import (EmbeddingWidthError, FusionConfig, FusionModule,
                     corpus_embedding_dims, embedding_arrays, fusion_grid,
                     fusion_setup, train_fusion)
from .iob import CLASSES, iob_collapse, iob_encode
from .metrics import score, score_by_first_page
from .runconfig import (ConfigError, apply_section, dump_config, load_config,
                        section_value)
from .schedule import lr_range_test
from .seqmodels import (BATCH_LAWSUITS, VARIANTS, SeqModel, SeqModelConfig,
                        label_lawsuits, train_seq)
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
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = dict(resolved)
    resolved["code.version"] = code_version()
    (out_dir / "config.txt").write_text(dump_config(resolved),
                                        encoding="utf-8")


def _load_corpus_checked(root):
    corpus = load_corpus(root)
    report = audit_splits(corpus)
    if report["violations"]:
        raise CorpusError("; ".join(report["violations"]))
    return corpus


# ---------------------------------------------------------------- gen-synth

def cmd_gen_synth(args):
    config = SynthConfig()
    resolved_keys = {}
    if args.config:
        file_cfg = load_config(args.config)
        used = apply_section(config, "synth", file_cfg)
        unused = set(file_cfg) - used
        if unused:
            raise ConfigError(f"unknown config key {sorted(unused)[0]!r}")
    if args.seed is not None:  # synth.seed is checked with the config
        _check_min(args.seed, 0, "--seed")
        config.seed = args.seed
    corpus = generate_synthetic(config)
    out = Path(args.out)
    save_corpus(corpus, out)
    for f in dataclasses.fields(config):
        resolved_keys[f"synth.{f.name}"] = getattr(config, f.name)
    resolved_keys["synth.config_hash"] = config.config_hash()
    _write_run_files(out, resolved_keys)
    report = audit_splits(corpus)
    print(json.dumps({"out": str(out), "config_hash": config.config_hash(),
                      "pages": {s: report["missing"][s]["pages"]
                                for s in SPLITS}}, indent=2))
    return EXIT_OK


# -------------------------------------------------------------------- audit

def cmd_audit(args):
    corpus = load_corpus(args.corpus)
    report = audit_splits(corpus)
    print(json.dumps(report, ensure_ascii=False, indent=2))
    return EXIT_DATA if report["violations"] else EXIT_OK


# ------------------------------------------------------------ the families

# What a family's train function gets: the --model name, the corpus, the
# model config, the --fm-checkpoint model and path, and the settings.
TrainRun = namedtuple("TrainRun", "name corpus config fm fm_checkpoint seed "
                                  "epochs batch lr out verbose")


def _fit_kw(run):
    return {"seed": run.seed, "epochs": run.epochs, "max_lr": run.lr,
            "out_path": run.out / "model.ckpt", "verbose": run.verbose}


def _saved_log(run, log):
    """Writes the epoch log; returns the best validation macro-F1."""
    log.save(run.out / "train_log.jsonl")
    return max(r.val_macro_f1 for r in log.rows)


def _page_tags(corpus, split, labels):
    """A page family's IOB tags of the split: ``labels(pages)``, with B-
    from the pages' first-page flags."""
    pages = list(iter_pages(corpus, split))
    return iob_encode(labels(pages), [p.is_first_page for p in pages])


def _fusion_grid(run):
    results = fusion_grid(run.corpus, run.config.text_dim,
                          run.config.image_dim, seed=run.seed,
                          epochs=run.epochs, batch_size=run.batch,
                          max_lr=run.lr)
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
    model; FAMILIES maps each --model name to one."""

    config: Callable  # (name, corpus, fm) -> model config, or None
    train: Callable  # (TrainRun) -> best validation macro-F1
    model: Callable  # (meta config, seed, vocab or fm) -> model to restore
    predict: Callable  # (model, vocab or fm, corpus, split) -> IOB tags
    lr: float  # --max-lr default
    batch: int = 64  # --batch-size default
    needs_fm: bool = False  # reads --fm-checkpoint
    vocab: bool = False  # reads vocab.txt
    # range-test: (name, corpus, config, seed) -> (model, n, loss_fn)
    setup: Callable | None = None
    grid: Callable | None = None  # train --grid, as train


TEXT_CNN = Family(
    config=lambda name, corpus, fm: TextCnnConfig(),
    train=lambda run: _saved_log(run, train_text_cnn(
        run.corpus, run.config, run.name.endswith("-w"),
        batch_size=run.batch, **_fit_kw(run))[-1]),
    model=lambda c, seed, vocab: TextCnn(len(vocab), TextCnnConfig(**c),
                                         seed=seed),
    predict=lambda model, vocab, corpus, split: _page_tags(
        corpus, split, lambda pages: label_pages(model, [encode_pages(
            pages, vocab, model.config.max_tokens)])),
    setup=lambda name, corpus, config, seed: text_cnn_setup(
        corpus, config, name.endswith("-w"), seed)[:3],
    lr=2e-3, vocab=True)
FUSION = Family(
    config=lambda name, corpus, fm: FusionConfig(
        *corpus_embedding_dims(corpus),
        missing_mode="zero" if name.endswith("-zero") else "learned"),
    train=lambda run: _saved_log(run, train_fusion(
        run.corpus, run.config, batch_size=run.batch, **_fit_kw(run))[-1]),
    model=lambda c, seed, _: FusionModule(FusionConfig(**c), seed=seed),
    predict=lambda model, _, corpus, split: _page_tags(
        corpus, split, lambda pages: label_pages(model, embedding_arrays(
            pages, model.config.text_dim, model.config.image_dim)[:4])),
    setup=lambda name, corpus, config, seed: fusion_setup(corpus, config,
                                                          seed),
    lr=5e-3, grid=_fusion_grid)
# crf and the bilstm families batch lawsuits, the others pages
FM_CRF = Family(
    config=lambda name, corpus, fm: None,
    train=lambda run: _saved_log(run, train_fm_crf(
        run.corpus, run.fm, batch_lawsuits=run.batch,
        fm_checkpoint=run.fm_checkpoint, **_fit_kw(run))[-1]),
    model=lambda c, seed, _: crf_ops.CrfModel(**c),
    predict=lambda model, fm, corpus, split: label_lawsuits(
        model.decode, fm_probability_sequences(corpus, fm, split)),
    lr=0.05, needs_fm=True)
SEQ = Family(
    config=_seq_config,
    train=lambda run: _saved_log(run, train_seq(
        _seq_data(run.corpus, run.fm, run.config), run.config,
        batch_lawsuits=run.batch, fm_checkpoint=run.fm_checkpoint,
        fm_digest=params_digest(run.fm.state_dict()), **_fit_kw(run))[-1]),
    model=lambda c, seed, _: SeqModel(SeqModelConfig(**c), seed=seed),
    predict=lambda model, fm, corpus, split: label_lawsuits(
        model.decode,
        _seq_data({split: corpus[split]}, fm, model.config)[split]),
    lr=2e-3, batch=BATCH_LAWSUITS, needs_fm=True)
FAMILIES = {"textcnn": TEXT_CNN, "textcnn-w": TEXT_CNN, "fusion": FUSION,
            "fusion-zero": FUSION, "crf": FM_CRF,
            **{variant: SEQ for variant in VARIANTS}}
TRAIN_MODELS = tuple(FAMILIES)
RANGE_TEST_MODELS = tuple(name for name, f in FAMILIES.items() if f.setup)


def _model_config(name, corpus, fm, cfg):
    """The family's model config with the ``model.*`` keys of ``cfg``."""
    config = FAMILIES[name].config(name, corpus, fm)
    if config is not None:
        apply_section(config, "model", cfg)
    return config


def _restore(path, params, meta, family, aux=None):
    """The family's model for the checkpoint's meta config and seed,
    holding the checkpoint's parameters.  A config or a parameter set
    that does not fit the model raises ``CheckpointIOError`` naming the
    file."""
    try:
        model = family.model(meta["config"], meta.get("seed", 0), aux)
        model.load_state(params)
    except (KeyError, TypeError, ValueError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise CheckpointIOError(f"{path}: {detail}") from None
    return model


def _upstream_fm(args, name, action, digest=None):
    """The --fm-checkpoint fusion module, for a family that reads one; a
    ``digest`` (of the FM a checkpoint was trained over) that is not its
    ``params_digest`` raises ``CheckpointIOError`` naming both files."""
    if not FAMILIES[name].needs_fm:
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
    """Names ``path``, the checkpoint (or corpus) that set the embedding
    widths, in an ``EmbeddingWidthError``."""
    try:
        yield
    except EmbeddingWidthError as exc:
        raise CheckpointIOError(f"{path}: {exc}") from None


def _load_vocab(args) -> Vocab:
    path = args.vocab or Path(args.model_checkpoint).with_name("vocab.txt")
    if not Path(path).exists():
        raise ConfigError(f"vocabulary file not found: {path} "
                          "(pass --vocab)")
    return Vocab.load(path)


# -------------------------------------------------------------------- train

def _seed_and_batch(args, cfg, default_batch):
    """``--seed`` and ``--batch-size``: the flag, else the ``train.*`` key
    of the config, else 0 and ``default_batch``; a bad value names its
    source."""
    seed = args.seed if args.seed is not None else \
        section_value(cfg, "train.seed", 0)
    batch = args.batch_size if args.batch_size is not None else \
        section_value(cfg, "train.batch_size", default_batch)
    _check_min(batch, 2, "--batch-size" if args.batch_size is not None
               else "train.batch_size")
    _check_min(seed, 0, "--seed" if args.seed is not None else "train.seed")
    return seed, batch


def _train_settings(args, family):
    cfg = load_config(args.config) if args.config else {}
    seed, batch = _seed_and_batch(args, cfg, family.batch)
    epochs = args.epochs if args.epochs is not None else \
        section_value(cfg, "train.epochs", 20)
    _check_min(epochs, 1, "--epochs" if args.epochs is not None
               else "train.epochs")
    lr = args.max_lr if args.max_lr is not None else \
        section_value(cfg, "train.lr", family.lr)
    lr_source = "--max-lr" if args.max_lr is not None else \
        "train.lr" if "train.lr" in cfg else "the default of --max-lr"
    _check_lr(lr, lr_source)
    return cfg, seed, epochs, batch, lr, lr_source


def _file_id(path):
    """Tells one write of ``path`` from another (a save replaces the
    file), or None if there is no file."""
    try:
        st = path.stat()
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_mtime_ns


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
    cfg, seed, epochs, batch, lr, lr_source = _train_settings(args, family)
    corpus = _load_corpus_checked(args.corpus)
    out = Path(args.out)
    fm = _upstream_fm(args, args.model, "training")
    run = TrainRun(args.model, corpus,
                   _model_config(args.model, corpus, fm, cfg), fm,
                   args.fm_checkpoint, seed, epochs, batch, lr, out,
                   args.verbose)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "model.ckpt"
    before = _file_id(ckpt)
    try:
        with _widths_named(args.fm_checkpoint or args.corpus):
            best = (family.grid if args.grid else family.train)(run)
    except TrainingDiverged as exc:
        # an epoch before the divergence may have saved a checkpoint;
        # with no log or config beside it, it would describe nothing
        if _file_id(ckpt) != before:
            ckpt.unlink()
        raise ValueError(f"{exc}; the learning rate {lr:g} set by "
                         f"{lr_source} is too high") from None
    _write_run_files(out, {**cfg, "train.model": args.model,
                           "train.seed": seed, "train.epochs": epochs,
                           "train.batch_size": batch,
                           "train.corpus": str(args.corpus), "train.lr": lr})
    print(f"best validation macro-F1 {100 * best:.2f}")
    return EXIT_OK


# --------------------------------------------------------------------- eval

def _predictions(args, corpus, split):
    """The split's pages and their predicted IOB tags."""
    params, meta = load_checkpoint(args.model_checkpoint)
    name = meta.get("model")
    family = FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise CheckpointIOError(f"unknown model family {name!r} in "
                                f"{args.model_checkpoint}")
    aux = _load_vocab(args) if family.vocab else \
        _upstream_fm(args, name, "evaluation", meta.get("fm_digest"))
    model = _restore(args.model_checkpoint, params, meta, family, aux)
    with _widths_named(args.fm_checkpoint if family.needs_fm
                       else args.model_checkpoint):
        tags = family.predict(model, aux, corpus, split)
    return list(iter_pages(corpus, split)), tags


def cmd_eval(args):
    corpus = _load_corpus_checked(args.corpus)
    pages, tags = _predictions(args, corpus, args.split)
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
    corpus = _load_corpus_checked(args.corpus)
    pages, tags = _predictions(args, corpus, args.split)
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
    cfg = load_config(args.config) if args.config else {}
    seed, batch = _seed_and_batch(args, cfg, 64)
    corpus = _load_corpus_checked(args.corpus)
    config = _model_config(args.model, corpus, None, cfg)
    model, n, loss_fn = FAMILIES[args.model].setup(args.model, corpus,
                                                   config, seed)
    rng = RngState(seed).consumer("range-test-shuffle")

    def batches():
        while True:
            yield from iterate_minibatches(n, batch, rng)

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

    p = sub.add_parser("audit", help="validate corpus split integrity")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("train", help="train one model family")
    p.add_argument("--model", required=True, choices=TRAIN_MODELS)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int,
                   help="pages per step, or lawsuits for crf and the "
                        "bilstm families (default 64, or 8 lawsuits for "
                        "bilstm)")
    p.add_argument("--max-lr", type=float)
    p.add_argument("--grid", action="store_true",
                   help="fusion only: run the four-config sweep")
    p.add_argument("--fm-checkpoint",
                   help="upstream fusion checkpoint (crf / bilstm families)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--model-checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--by-first-page", action="store_true")
    p.add_argument("--vocab", help="textcnn vocabulary file")
    p.add_argument("--fm-checkpoint")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="write per-page predictions")
    p.add_argument("--model-checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab")
    p.add_argument("--fm-checkpoint")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("range-test", help="learning-rate range test")
    p.add_argument("--model", required=True, choices=RANGE_TEST_MODELS)
    p.add_argument("--corpus", required=True)
    p.add_argument("--lr-min", type=float, required=True)
    p.add_argument("--lr-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--batch-size", type=int, help="pages per step "
                   "(default train.batch_size, else 64)")
    p.add_argument("--seed", type=int,
                   help="default train.seed, else 0")
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
