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
import csv
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import crf as crf_ops
from .checkpoint import CheckpointIOError, load_checkpoint, save_checkpoint
from .corpus import (SPLITS, CorpusError, audit_splits, iter_pages,
                     load_corpus, save_corpus)
from .experiments import (fm_probability_sequences, seq_dataset, train_fm_crf)
from .fusion import (FusionConfig, FusionModule, corpus_embedding_dims,
                     embedding_arrays, fusion_grid, train_fusion)
from .iob import CLASSES, IOB_TAGS
from .losses import cross_entropy
from .metrics import score, score_by_first_page
from .model_base import load_named
from .runconfig import (ConfigError, apply_section, dump_config, load_config,
                        section_value)
from .schedule import lr_range_test
from .seqmodels import (BATCH_LAWSUITS, VARIANTS, SeqModel, SeqModelConfig,
                        train_seq)
from .synth import SynthConfig, generate_synthetic
from .tensor import RngState
from .text import Vocab
from .textcnn import TextCnn, TextCnnConfig, encode_pages, train_text_cnn
from .training import iterate_minibatches

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

TRAIN_MODELS = ("textcnn", "textcnn-w", "fusion", "fusion-zero", "crf",
                "bilstm", "bilstm-crf", "bilstm-f", "bilstm-f-crf")


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
    if args.seed is not None:
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


# -------------------------------------------------------------------- train

def _train_settings(args, batch_default):
    cfg = load_config(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else \
        section_value(cfg, "train.seed", 0)
    epochs = args.epochs if args.epochs is not None else \
        section_value(cfg, "train.epochs", 20)
    batch = args.batch_size if args.batch_size is not None else \
        section_value(cfg, "train.batch_size", batch_default)
    lr = args.max_lr if args.max_lr is not None else \
        section_value(cfg, "train.lr", None, float)
    return cfg, seed, epochs, batch, lr


def _save_model_checkpoint(path, model, family, config, seed, best):
    meta = {"model": family, "seed": seed, "val_macro_f1": best,
            "config": dataclasses.asdict(config)}
    save_checkpoint(path, model.state_dict(), meta)


def _restore(path, params, meta, build):
    """``build(**config)`` on the checkpoint's meta config, holding the
    checkpoint's parameters.  A config or a parameter set that does not
    fit the model raises ``CheckpointIOError`` naming the file."""
    try:
        model = build(**meta["config"])
        load_named(model.state_dict(), params, type(model).__name__)
    except (KeyError, TypeError, ValueError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise CheckpointIOError(f"{path}: {detail}") from None
    return model


def _load_fusion_checkpoint(path) -> FusionModule:
    params, meta = load_checkpoint(path)
    if meta.get("model") not in ("fusion", "fusion-zero"):
        raise CheckpointIOError(f"{path}: not a fusion checkpoint "
                                f"(model={meta.get('model')!r})")
    return _restore(path, params, meta, lambda **config: FusionModule(
        FusionConfig(**config), seed=meta.get("seed", 0)))


def cmd_train(args):
    # a bilstm family batches lawsuits, the others pages
    cfg, seed, epochs, batch, lr = _train_settings(
        args, BATCH_LAWSUITS if args.model in VARIANTS else 64)
    corpus = _load_corpus_checked(args.corpus)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    resolved = {"train.model": args.model, "train.seed": seed,
                "train.epochs": epochs, "train.batch_size": batch,
                "train.corpus": str(args.corpus)}
    family = args.model

    if family in ("textcnn", "textcnn-w"):
        config = TextCnnConfig()
        apply_section(config, "model", cfg)
        lr = lr if lr is not None else 2e-3
        model, vocab, _, log = train_text_cnn(
            corpus, config, weighted=family.endswith("-w"), seed=seed,
            epochs=epochs, batch_size=batch, max_lr=lr,
            out_path=out / "model.ckpt", verbose=args.verbose)
        vocab.save(out / "vocab.txt")
        best = max(r.val_macro_f1 for r in log.rows)
        _save_model_checkpoint(out / "model.ckpt", model, family, config,
                               seed, best)
    elif family in ("fusion", "fusion-zero"):
        text_dim, image_dim = corpus_embedding_dims(corpus)
        config = FusionConfig(text_dim=text_dim, image_dim=image_dim,
                              missing_mode="zero" if family.endswith("zero")
                              else "learned")
        apply_section(config, "model", cfg)
        lr = lr if lr is not None else 5e-3
        if args.grid:
            results = fusion_grid(corpus, text_dim, image_dim, seed=seed,
                                  epochs=epochs, batch_size=batch, max_lr=lr)
            (out / "grid_results.json").write_text(
                json.dumps(results, indent=2), encoding="utf-8")
            for name, val in results.items():
                print(f"{name:12s} val macro-F1 {100 * val:.2f}")
            log = None
            best = max(results.values())
        else:
            model, _, log = train_fusion(corpus, config, seed=seed,
                                         epochs=epochs, batch_size=batch,
                                         max_lr=lr, out_path=out / "model.ckpt",
                                         verbose=args.verbose)
            best = max(r.val_macro_f1 for r in log.rows)
            _save_model_checkpoint(out / "model.ckpt", model, family, config,
                                   seed, best)
    elif family == "crf":
        if not args.fm_checkpoint:
            raise ConfigError("crf training needs --fm-checkpoint")
        fm = _load_fusion_checkpoint(args.fm_checkpoint)
        lr = lr if lr is not None else 0.05
        model, history = train_fm_crf(corpus, fm, epochs=epochs, lr=lr)
        save_checkpoint(out / "model.ckpt", model.params,
                        {"model": "crf", "seed": seed,
                         "fm_checkpoint": str(args.fm_checkpoint),
                         "config": {"n_tags": model.n_tags,
                                    "n_features": model.n_features}})
        log = None
        best = None
        (out / "train_log.jsonl").write_text(
            "".join(json.dumps({"epoch": i, "nll": h}) + "\n"
                    for i, h in enumerate(history)), encoding="utf-8")
    else:  # bilstm family
        if not args.fm_checkpoint:
            raise ConfigError(f"{family} training needs --fm-checkpoint")
        fm = _load_fusion_checkpoint(args.fm_checkpoint)
        kind = "concat" if family in ("bilstm-f", "bilstm-f-crf") else "hidden"
        data = seq_dataset(corpus, fm, kind)
        input_dim = fm.config.concat_dim if kind == "concat" \
            else fm.config.hidden
        config = SeqModelConfig(variant=family, input_dim=input_dim)
        apply_section(config, "model", cfg)
        lr = lr if lr is not None else 2e-3
        model, _, log = train_seq(data, config, seed=seed, epochs=epochs,
                                  batch_lawsuits=batch,
                                  max_lr=lr, out_path=out / "model.ckpt",
                                  verbose=args.verbose)
        best = max(r.val_macro_f1 for r in log.rows)
        meta_cfg = dataclasses.asdict(config)
        meta = {"model": family, "seed": seed, "val_macro_f1": best,
                "config": meta_cfg, "fm_checkpoint": str(args.fm_checkpoint)}
        save_checkpoint(out / "model.ckpt", model.state_dict(), meta)

    if log is not None:
        log.save(out / "train_log.jsonl")
    resolved["train.lr"] = lr
    for f_name, value in (cfg or {}).items():
        resolved.setdefault(f_name, value)
    _write_run_files(out, resolved)
    if best is not None:
        print(f"best validation macro-F1 {100 * best:.2f}")
    else:
        print("training done")
    return EXIT_OK


# --------------------------------------------------------------------- eval

def _predictions(args, corpus, split):
    """Per-page gold labels, predicted labels, predicted IOB tags, flags."""
    params, meta = load_checkpoint(args.model_checkpoint)
    family = meta.get("model")
    pages = list(iter_pages(corpus, split))
    gold = [p.label for p in pages]
    flags = [p.is_first_page for p in pages]

    if family in ("textcnn", "textcnn-w"):
        vocab = _load_vocab(args)
        model = _restore(args.model_checkpoint, params, meta,
                         lambda **config: TextCnn(len(vocab),
                                                  TextCnnConfig(**config),
                                                  seed=meta.get("seed", 0)))
        ids = encode_pages(pages, vocab, model.config.max_tokens)
        preds = []
        for start in range(0, len(ids), 64):
            probs = model.predict_probs(ids[start:start + 64])
            preds.extend(CLASSES[i] for i in probs.argmax(axis=1))
    elif family in ("fusion", "fusion-zero"):
        model = _load_fusion_checkpoint(args.model_checkpoint)
        data = embedding_arrays(pages, model.config.text_dim,
                                model.config.image_dim)
        preds = []
        for start in range(0, len(pages), 512):
            sl = slice(start, start + 512)
            probs = model.predict_probs(data[0][sl], data[1][sl],
                                        data[2][sl], data[3][sl])
            preds.extend(CLASSES[i] for i in probs.argmax(axis=1))
    elif family == "crf":
        if not args.fm_checkpoint:
            raise ConfigError("crf evaluation needs --fm-checkpoint")
        fm = _load_fusion_checkpoint(args.fm_checkpoint)
        crf_model = _restore(args.model_checkpoint, params, meta,
                             crf_ops.CrfModel)
        tags = []
        for feats, _ in fm_probability_sequences(corpus, fm, split):
            path, _ = crf_model.decode(feats)
            tags.extend(IOB_TAGS[i] for i in path)
        return gold, [t[2:] for t in tags], tags, flags
    elif family in ("bilstm", "bilstm-crf", "bilstm-f", "bilstm-f-crf"):
        if not args.fm_checkpoint:
            raise ConfigError(f"{family} evaluation needs --fm-checkpoint")
        fm = _load_fusion_checkpoint(args.fm_checkpoint)
        model = _restore(args.model_checkpoint, params, meta,
                         lambda **config: SeqModel(SeqModelConfig(**config),
                                                   seed=meta.get("seed", 0)))
        kind = "concat" if family in ("bilstm-f", "bilstm-f-crf") else "hidden"
        data = seq_dataset(corpus, fm, kind)
        tags = []
        for x, _ in data[split]:
            tags.extend(IOB_TAGS[i] for i in model.decode(x))
        return gold, [t[2:] for t in tags], tags, flags
    else:
        raise CheckpointIOError(f"unknown model family {family!r} in "
                                f"{args.model_checkpoint}")
    tags = [("B-" if f else "I-") + p for p, f in zip(preds, flags)]
    return gold, preds, tags, flags


def _load_vocab(args) -> Vocab:
    path = args.vocab or Path(args.model_checkpoint).with_name("vocab.txt")
    if not Path(path).exists():
        raise ConfigError(f"vocabulary file not found: {path} "
                          "(pass --vocab)")
    return Vocab.load(path)


def cmd_eval(args):
    corpus = _load_corpus_checked(args.corpus)
    gold, preds, _, flags = _predictions(args, corpus, args.split)
    report = score(gold, preds, CLASSES)
    out = {"split": args.split, "report": report.to_dict()}
    if args.by_first_page:
        first, interior = score_by_first_page(gold, preds, flags, CLASSES)
        out["first_page"] = first.to_dict()
        out["interior"] = interior.to_dict()
    print(json.dumps(out, ensure_ascii=False, indent=2))
    print(report.to_text(), file=sys.stderr)
    return EXIT_OK


# ------------------------------------------------------------------ predict

def cmd_predict(args):
    corpus = _load_corpus_checked(args.corpus)
    pages = list(iter_pages(corpus, args.split))
    gold, preds, tags, _ = _predictions(args, corpus, args.split)
    with open(args.out, "w", encoding="utf-8") as fh:
        for page, g, p, t in zip(pages, gold, preds, tags):
            fh.write(json.dumps({"lawsuit_id": page.lawsuit_id,
                                 "page_index": page.page_index,
                                 "gold": g, "pred": p, "pred_tag": t},
                                ensure_ascii=False) + "\n")
    print(f"wrote {len(pages)} predictions to {args.out}")
    return EXIT_OK


# --------------------------------------------------------------- range-test

def cmd_range_test(args):
    from .optim import Adam

    if args.lr_min >= args.lr_max:
        raise ConfigError(f"--lr-min {args.lr_min} must be below "
                          f"--lr-max {args.lr_max}")
    corpus = _load_corpus_checked(args.corpus)
    seed = args.seed or 0
    rng = RngState(seed).consumer("range-test-shuffle")

    if args.model in ("fusion", "fusion-zero"):
        pages = list(iter_pages(corpus, "train"))
        text_dim, image_dim = corpus_embedding_dims(corpus)
        config = FusionConfig(text_dim=text_dim, image_dim=image_dim,
                              missing_mode="zero" if args.model.endswith("zero")
                              else "learned")
        model = FusionModule(config, seed=seed)
        data = embedding_arrays(pages, text_dim, image_dim)
        text, image, tmask, imask, targets = data

        def loss_step(idx, lr):
            model.zero_grads()
            logits = model.forward(text[idx], image[idx], tmask[idx],
                                   imask[idx], train=True)
            loss, dlogits = cross_entropy(logits, targets[idx])
            model.backward(dlogits)
            opt.step(model.named_grads(), lr)
            return loss

        opt = Adam(model.named_params())
        n = len(pages)
    elif args.model in ("textcnn", "textcnn-w"):
        from .losses import class_weights
        pages = [p for p in iter_pages(corpus, "train") if p.text_tokens]
        config = TextCnnConfig()
        if args.config:
            apply_section(config, "model", load_config(args.config))
        vocab = Vocab.build([p.text_tokens for p in pages])
        ids = encode_pages(pages, vocab, config.max_tokens)
        targets = np.array([CLASSES.index(p.label) for p in pages])
        weights = None
        if args.model.endswith("-w"):
            counts = [int((targets == i).sum()) for i in range(len(CLASSES))]
            weights = class_weights(counts)
        model = TextCnn(len(vocab), config, seed=seed)
        opt = Adam(model.named_params())

        def loss_step(idx, lr):
            model.zero_grads()
            logits = model.forward(ids[idx], train=True)
            loss, dlogits = cross_entropy(logits, targets[idx], weights)
            model.backward(dlogits)
            opt.step(model.named_grads(), lr)
            return loss

        n = len(pages)
    else:
        raise ConfigError(f"range test supports textcnn/fusion models, "
                          f"not {args.model!r}")

    def batches():
        while True:
            yield from iterate_minibatches(n, args.batch_size, rng)

    result = lr_range_test(loss_step, batches(), args.lr_min, args.lr_max,
                           args.steps)
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
                   help="pages per step, or lawsuits for the bilstm "
                        "families (default 64 pages, 8 lawsuits)")
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
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--lr-min", type=float, required=True)
    p.add_argument("--lr-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--seed", type=int)
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
