import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pageseq
from pageseq.checkpoint import load_checkpoint, save_checkpoint
from pageseq import training
from pageseq.cli import FAMILIES, main
from pageseq.runconfig import load_config
from pageseq.seqmodels import VARIANTS
from test_corpus import BAD_MANIFESTS, BAD_PAGE_ROWS, edit_first_line

TINY_SYNTH = ("synth.n_lawsuits=24\n"
              "synth.seed=3\n"
              "synth.text_dim=16\n"
              "synth.image_dim=12\n")

TINY_CNN = ("model.max_tokens=16\n"
            "model.embed_dim=8\n"
            "model.filters_per_size=4\n"
            "model.blocks=2\n"
            "model.final_pool_out_len=2\n"
            "model.fc_hidden=8\n")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    (root / "synth.cfg").write_text(TINY_SYNTH)
    (root / "cnn.cfg").write_text(TINY_CNN)
    assert main(["gen-synth", "--config", str(root / "synth.cfg"),
                 "--out", str(root / "corpus")]) == 0
    assert main(["train", "--model", "fusion",
                 "--corpus", str(root / "corpus"),
                 "--out", str(root / "fm"), "--epochs", "3"]) == 0
    return root


def _fm_flag(workspace, family):
    """--fm-checkpoint with the workspace FM, for a family that reads one."""
    return ["--fm-checkpoint", str(workspace / "fm" / "model.ckpt")] \
        if FAMILIES[family].needs_fm else []


def test_gen_synth_deterministic(workspace, capsys):
    assert main(["gen-synth", "--config", str(workspace / "synth.cfg"),
                 "--out", str(workspace / "corpus_b")]) == 0
    a, b = workspace / "corpus", workspace / "corpus_b"
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        if rel.name == "config.txt":
            continue  # contains the output path-independent config; compare too
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_gen_synth_reruns_from_its_config_txt(workspace):
    """The config.txt a corpus records, its synth.config_hash and
    code.version included, regenerates it byte for byte."""
    a, b = workspace / "corpus", workspace / "corpus_rerun"
    assert main(["gen-synth", "--config", str(a / "config.txt"),
                 "--out", str(b)]) == 0
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*")
                           if p.is_file())
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_gen_synth_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("synth.banana=1\n")
    code = main(["gen-synth", "--config", str(cfg),
                 "--out", str(tmp_path / "c")])
    assert code == 1
    assert "synth.banana" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("n_lawsuits", "-5"),
    ("image_noise", "nan"),
    ("max_doc_len", "0"),
    ("class_freq", "0.5,0.5"),
    ("doc_len_mean", "0,0,0,0,0,0"),
    ("filler_vocab", str(2**32 + 1)),
])
def test_gen_synth_out_of_range_value_names_the_key(tmp_path, capsys, key,
                                                    value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"synth.{key}={value}\n")
    code = main(["gen-synth", "--config", str(cfg),
                 "--out", str(tmp_path / "c")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"config error: synth.{key} must be "), err
    assert not (tmp_path / "c").exists()


def test_audit_clean(workspace, capsys):
    assert main(["audit", "--corpus", str(workspace / "corpus")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"class_counts", "missing"}
    assert set(report["missing"]["test"]) == {"pages", "missing_text",
                                              "missing_image"}


def test_audit_missing_corpus(tmp_path, capsys):
    assert main(["audit", "--corpus", str(tmp_path / "nope")]) == 2


def test_audit_non_finite_embedding_exits_2(tmp_path, capsys):
    from pageseq.corpus import iter_pages, save_corpus
    from pageseq.synth import SynthConfig, generate_synthetic
    corpus = generate_synthetic(SynthConfig(n_lawsuits=6, seed=3))
    page = next(p for p in iter_pages(corpus, "test")
                if p.image_embedding is not None)
    page.image_embedding[1] = np.inf
    save_corpus(corpus, tmp_path / "corpus")
    assert main(["audit", "--corpus", str(tmp_path / "corpus")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        f"data error: {tmp_path / 'corpus' / 'test' / 'image.emb'}: page "
        f"{page.page_index} of lawsuit {page.lawsuit_id} has NaN or Inf in "
        "row "), err


def _loading_argv(workspace, out, command, corpus):
    """``command`` over ``corpus``, with the workspace FM as the
    checkpoint of eval and predict and ``out`` as the output."""
    out, fm = str(out), str(workspace / "fm" / "model.ckpt")
    argv = {"audit": [],
            "train": ["--model", "fusion", "--epochs", "1", "--out", out],
            "eval": ["--model-checkpoint", fm],
            "predict": ["--model-checkpoint", fm, "--out", out],
            "range-test": ["--model", "fusion", "--lr-min", "1e-5",
                           "--lr-max", "1.0", "--steps", "5", "--out", out]}
    return [command, "--corpus", str(corpus), *argv[command]]


@pytest.mark.parametrize("command", ["audit", "train", "eval", "predict",
                                     "range-test"])
def test_non_finite_embedding_exits_2_naming_file_lawsuit_and_page(
        workspace, tmp_path, capsys, command):
    """A corpus with a -Inf text row in train and a NaN image row in
    test: every command that loads it stops at the first."""
    from pageseq.corpus import iter_pages, load_corpus, save_corpus
    corpus = load_corpus(workspace / "corpus")
    bad = next(p for p in iter_pages(corpus, "train")
               if p.text_embedding is not None)
    bad.text_embedding[0] = -np.inf
    next(p for p in iter_pages(corpus, "test")
         if p.image_embedding is not None).image_embedding[2] = np.nan
    root = tmp_path / "corpus"
    save_corpus(corpus, root)
    capsys.readouterr()
    assert main(_loading_argv(workspace, tmp_path / "out", command, root)) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"data error: {root / 'train' / 'text.emb'}: page {bad.page_index} "
        f"of lawsuit {bad.lawsuit_id} has NaN or Inf in row "), err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("width", [20, 0])
@pytest.mark.parametrize("command", ["audit", "train", "eval", "predict",
                                     "range-test"])
def test_embedding_width_other_than_the_corpus_exits_2_naming_both_files(
        workspace, tmp_path, capsys, command, width):
    """Validation text rows of width 20, or of width 0, beside train rows
    of width 16: every command that loads the corpus names both files."""
    from pageseq.corpus import iter_pages, load_corpus, save_corpus
    corpus = load_corpus(workspace / "corpus")
    for page in iter_pages(corpus, "validation"):
        if page.text_embedding is not None:
            page.text_embedding = np.ones(width, dtype=np.float32)
    root = tmp_path / "corpus"
    save_corpus(corpus, root)
    capsys.readouterr()
    assert main(_loading_argv(workspace, tmp_path / "out", command, root)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"data error: {root / 'validation' / 'text.emb'}: rows of "
                   f"width {width}, but {root / 'train' / 'text.emb'} has "
                   "rows of width 16\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("probe", ["unknown-split", "model.text_dim",
                                   "model.image_dim"])
@pytest.mark.parametrize("command", ["train", "train-grid", "range-test"])
def test_split_name_or_corpus_width_key_is_refused(workspace, tmp_path,
                                                   capsys, command, probe):
    """A manifest split other than train, validation and test exits 2
    naming manifest.json; a model.* key that restates a corpus width
    exits 1 naming the key and the config.  Nothing is written."""
    root, out, cfg = tmp_path / "corpus", tmp_path / "out", tmp_path / "run.cfg"
    shutil.copytree(workspace / "corpus", root)
    cfg.write_text("model.dropout=0.1\n")
    if probe == "unknown-split":
        edit, message = BAD_MANIFESTS[probe]
        manifest = root / "manifest.json"
        manifest.write_bytes(edit(manifest.read_bytes()))
        (root / "validation").rename(root / "valid")
        code, want = 2, f"data error: {manifest}: {message}\n"
    else:
        cfg.write_text(f"model.dropout=0.1\n{probe}=16\n")
        code, want = 1, (f"config error: the corpus sets {probe}; drop it "
                         f"from {cfg}\n")
    if command == "range-test":
        argv = ["range-test", "--model", "fusion", "--lr-min", "1e-5",
                "--lr-max", "1.0", "--steps", "5"]
    else:
        argv = ["train", "--model", "fusion", "--epochs", "1",
                *(["--grid"] if command == "train-grid" else [])]
    capsys.readouterr()
    assert main([*argv, "--corpus", str(root), "--config", str(cfg),
                 "--out", str(out)]) == code
    assert capsys.readouterr().err == want
    assert not out.exists()


@pytest.mark.parametrize("file, probe", [
    *(pytest.param("train/pages.jsonl", probe, id=f"row-{probe}")
      for probe in sorted(BAD_PAGE_ROWS)),
    *(pytest.param("manifest.json", probe, id=f"manifest-{probe}")
      for probe in sorted(BAD_MANIFESTS)),
])
def test_audit_bad_page_row_or_manifest_exits_2(workspace, tmp_path, capsys,
                                                file, probe):
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace / "corpus", corpus)
    path = corpus / file
    if file == "manifest.json":
        edit, message = BAD_MANIFESTS[probe]
        path.write_bytes(edit(path.read_bytes()))
        where = f"{path}: {message}"
    else:
        edit, message = BAD_PAGE_ROWS[probe]
        edit_first_line(path, edit)
        where = f"{path}:1: {message}"
    assert main(["audit", "--corpus", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {where}"), err
    assert "Traceback" not in err


def test_train_writes_run_files(workspace):
    out = workspace / "fm"
    assert (out / "model.ckpt").exists()
    assert (out / "train_log.jsonl").exists()
    config = (out / "config.txt").read_text()
    assert "train.seed=" in config
    assert "code.version=" in config
    rows = [json.loads(l) for l in
            (out / "train_log.jsonl").read_text().splitlines()]
    assert len(rows) == 3
    assert {"epoch", "lr", "train_loss", "val_macro_f1",
            "val_weighted_f1"} <= set(rows[0])
    # lr follows the one-cycle shape: rises then anneals
    lrs = [r["lr"] for r in rows]
    assert max(lrs) >= lrs[0] and lrs[-1] <= max(lrs)


def test_train_textcnn_and_eval(workspace, capsys):
    out = workspace / "cnn"
    assert main(["train", "--model", "textcnn",
                 "--corpus", str(workspace / "corpus"),
                 "--out", str(out), "--epochs", "2",
                 "--config", str(workspace / "cnn.cfg")]) == 0
    assert (out / "vocab.txt").exists()
    capsys.readouterr()
    assert main(["eval", "--model-checkpoint", str(out / "model.ckpt"),
                 "--corpus", str(workspace / "corpus"),
                 "--split", "test"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["split"] == "test"
    assert 0.0 <= report["report"]["macro_f1"] <= 1.0


def _assert_eval_exits_3_naming(workspace, bad):
    """``pageseq eval`` in its own process: exit 3, no traceback, and a
    message that names the checkpoint."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(pageseq.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "pageseq.cli", "eval",
                          "--model-checkpoint", str(bad),
                          "--corpus", str(workspace / "corpus")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 3, run.stderr
    assert "Traceback" not in run.stderr
    assert str(bad) in run.stderr
    return run.stderr


def test_eval_truncated_checkpoint_exits_3_without_traceback(workspace):
    bad = workspace / "truncated.ckpt"
    bad.write_bytes(b"PSEQCKPT\x01\x00\x00\x00\x10\x00")  # 14 bytes
    _assert_eval_exits_3_naming(workspace, bad)


def _edited_fm_checkpoint(workspace, name, edit):
    params, meta = load_checkpoint(workspace / "fm" / "model.ckpt")
    edit(params, meta)
    path = workspace / name
    save_checkpoint(path, params, meta)
    return path


def test_eval_checkpoint_missing_a_parameter_exits_3(workspace):
    bad = _edited_fm_checkpoint(workspace, "dropped.ckpt",
                                lambda params, meta: params.pop("bn0.beta"))
    assert "bn0.beta" in _assert_eval_exits_3_naming(workspace, bad)


def test_eval_checkpoint_with_renamed_parameter_exits_3(workspace):
    def rename(params, meta):
        params["bn0_beta"] = params.pop("bn0.beta")

    bad = _edited_fm_checkpoint(workspace, "renamed.ckpt", rename)
    assert "bn0_beta" in _assert_eval_exits_3_naming(workspace, bad)


def test_eval_checkpoint_with_unknown_config_key_exits_3(workspace):
    def add_key(params, meta):
        meta["config"]["bogus_width"] = 3

    bad = _edited_fm_checkpoint(workspace, "badconfig.ckpt", add_key)
    assert "bogus_width" in _assert_eval_exits_3_naming(workspace, bad)


def test_eval_checkpoint_with_another_class_count_exits_3(workspace):
    def set_classes(params, meta):
        meta["config"]["classes"] = 5

    bad = _edited_fm_checkpoint(workspace, "classes5.ckpt", set_classes)
    assert "config classes is 5, not the pipeline's 6" in \
        _assert_eval_exits_3_naming(workspace, bad)


@pytest.mark.parametrize("name, key, count", [
    ("textcnn_per_kernel", "classes", 6),
    ("bilstm_crf_parent", "n_tags", 12)])
def test_restore_takes_only_the_pipeline_count_from_old_metas(name, key,
                                                               count):
    """The class or tag count an older meta stores is dropped when it is
    the pipeline's (the committed checkpoints' tests restore them), and
    any other count names the file, as for the FM above."""
    from pageseq import cli
    from pageseq.checkpoint import CheckpointIOError
    path = Path(__file__).parent / "data" / f"{name}.ckpt"
    params, meta = load_checkpoint(path)
    assert meta["config"][key] == count
    meta["config"][key] = count - 1
    with pytest.raises(CheckpointIOError) as exc:
        cli._restore(path, params, meta, cli.FAMILIES[meta["model"]])
    assert str(exc.value) == (f"{path}: config {key} is {count - 1}, not "
                              f"the pipeline's {count}")


def test_eval_idempotent(workspace, capsys):
    argv = ["eval", "--model-checkpoint", str(workspace / "fm" / "model.ckpt"),
            "--corpus", str(workspace / "corpus"), "--split", "validation"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_eval_by_first_page_supports_sum(workspace, capsys):
    assert main(["eval", "--model-checkpoint",
                 str(workspace / "fm" / "model.ckpt"),
                 "--corpus", str(workspace / "corpus"),
                 "--split", "test", "--by-first-page"]) == 0
    report = json.loads(capsys.readouterr().out)
    total = report["report"]["total"]
    assert report["first_page"]["total"] + report["interior"]["total"] == total


def test_train_crf_requires_fm(workspace, capsys):
    code = main(["train", "--model", "crf",
                 "--corpus", str(workspace / "corpus"),
                 "--out", str(workspace / "crf_nofm")])
    assert code == 1


def test_train_and_eval_crf_and_seq(workspace, capsys):
    fm_ckpt = str(workspace / "fm" / "model.ckpt")
    assert main(["train", "--model", "crf",
                 "--corpus", str(workspace / "corpus"),
                 "--out", str(workspace / "crf"), "--epochs", "15",
                 "--fm-checkpoint", fm_ckpt]) == 0
    assert main(["train", "--model", "bilstm",
                 "--corpus", str(workspace / "corpus"),
                 "--out", str(workspace / "seq"), "--epochs", "2",
                 "--fm-checkpoint", fm_ckpt]) == 0
    capsys.readouterr()
    assert main(["eval", "--model-checkpoint",
                 str(workspace / "crf" / "model.ckpt"),
                 "--corpus", str(workspace / "corpus"),
                 "--fm-checkpoint", fm_ckpt, "--split", "test"]) == 0
    assert main(["eval", "--model-checkpoint",
                 str(workspace / "seq" / "model.ckpt"),
                 "--corpus", str(workspace / "corpus"),
                 "--fm-checkpoint", fm_ckpt, "--split", "test"]) == 0


@pytest.mark.parametrize("flag, per_step", [([], 8),
                                            (["--batch-size", "64"], 64)])
def test_train_seq_batches_lawsuits(workspace, monkeypatch, flag, per_step):
    """Without --batch-size or train.batch_size a bilstm family takes
    train_seq's 8 lawsuits per step, not the page batch of 64, and the
    run files record the batch actually used."""
    from pageseq.corpus import load_corpus
    from pageseq.optim import Adam
    from pageseq.training import minibatch_count
    steps = []
    adam_step = Adam.step

    def counted_step(self, grads, lr):
        steps.append(lr)
        adam_step(self, grads, lr)

    monkeypatch.setattr(Adam, "step", counted_step)
    out = workspace / f"seq_batch_{per_step}"
    assert main(["train", "--model", "bilstm-f",
                 "--corpus", str(workspace / "corpus"), "--out", str(out),
                 "--epochs", "2", *flag,
                 "--fm-checkpoint", str(workspace / "fm" / "model.ckpt")]) == 0
    n_train = len(load_corpus(workspace / "corpus")["train"])
    assert minibatch_count(n_train, 8) > 1
    assert len(steps) == 2 * minibatch_count(n_train, per_step)
    assert f"train.batch_size={per_step}\n" in (out / "config.txt").read_text()


@pytest.mark.parametrize("flag, per_step", [([], 256),
                                            (["--batch-size", "4"], 4)])
def test_train_crf_batches_lawsuits(workspace, monkeypatch, flag, per_step):
    """--batch-size is the CRF's lawsuits per step (256 by default), every
    step at the constant --max-lr, and the run files record it."""
    from pageseq.corpus import load_corpus
    from pageseq.optim import Adam
    from pageseq.training import minibatch_count
    steps = []
    adam_step = Adam.step

    def counted_step(self, grads, lr):
        steps.append(lr)
        adam_step(self, grads, lr)

    monkeypatch.setattr(Adam, "step", counted_step)
    out = workspace / f"crf_batch_{per_step}"
    assert main(["train", "--model", "crf",
                 "--corpus", str(workspace / "corpus"), "--out", str(out),
                 "--epochs", "2", "--max-lr", "0.03", *flag,
                 "--fm-checkpoint", str(workspace / "fm" / "model.ckpt")]) == 0
    n_train = len(load_corpus(workspace / "corpus")["train"])
    assert minibatch_count(n_train, 4) > 1
    assert steps == [0.03] * 2 * minibatch_count(n_train, per_step)
    assert f"train.batch_size={per_step}\n" in (out / "config.txt").read_text()


@pytest.mark.parametrize("command, option", [
    ("gen-synth", "--seed"), ("train", "--seed"), ("train", "train.seed"),
    ("range-test", "--seed"), ("range-test", "train.seed")])
def test_negative_seed_is_config_error(workspace, tmp_path, capsys, command,
                                       option):
    """Rejected before anything is written, naming the flag or key."""
    out = tmp_path / "out"
    seed = ["--seed", "-1"]
    if option == "train.seed":
        (tmp_path / "train.cfg").write_text("train.seed=-1\n")
        seed = ["--config", str(tmp_path / "train.cfg")]
    corpus = ["--corpus", str(workspace / "corpus")]
    argv = {"gen-synth": [],
            "train": ["--model", "fusion", *corpus, "--epochs", "1"],
            "range-test": ["--model", "fusion", *corpus, "--lr-min", "1e-4",
                           "--lr-max", "1.0", "--steps", "3"]}[command]
    assert main([command, *argv, *seed, "--out", str(out)]) == 1
    assert f"config error: {option} must be at least 0, got -1" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, model, option, value, rule", [
    ("train", "fusion", "--max-lr", "nan", "must be finite and above 0"),
    ("train", "fusion", "train.lr", "-0.1", "must be finite and above 0"),
    ("train", "crf", "--max-lr", "inf", "must be finite and above 0"),
    ("train", "fusion", "--epochs", "0", "must be at least 1"),
    ("train", "crf", "--epochs", "0", "must be at least 1"),
    ("train", "bilstm", "train.epochs", "0", "must be at least 1"),
    ("range-test", "fusion", "--lr-min", "-1", "must be finite and above 0"),
    ("range-test", "textcnn", "--lr-max", "nan", "must be finite and above 0"),
    ("range-test", "fusion", "--steps", "1", "must be at least 2")])
def test_bad_rate_or_count_is_config_error(workspace, tmp_path, capsys,
                                           command, model, option, value,
                                           rule):
    """Rejected before anything is written, naming the flag or key."""
    out = tmp_path / "out"
    argv = [command, "--model", model, "--corpus", str(workspace / "corpus"),
            "--out", str(out)]
    if command == "train":
        argv += ["--fm-checkpoint", str(workspace / "fm" / "model.ckpt")]
    else:
        argv += ["--lr-min", "1e-4", "--lr-max", "1.0", "--steps", "3"]
    if option.startswith("train."):
        (tmp_path / "train.cfg").write_text(f"{option}={value}\n")
        argv += ["--config", str(tmp_path / "train.cfg")]
    else:
        argv += [option, value]
    assert main(argv) == 1
    assert f"config error: {option} {rule}, got {value}" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model, key, value, rule", [
    ("textcnn", "pool_size", "0", "at least 1"),
    ("bilstm-f", "lstm_hidden", "0", "at least 1"),
    ("textcnn", "final_pool_out_len", "0", "at least 1"),
    ("fusion", "hidden", "0", "at least 1"),
    ("bilstm-f", "pre_fc", "0", "at least 1"),
    ("textcnn", "blocks", "0", "at least 1"),
    ("textcnn", "max_tokens", "0", "at least 1"),
    ("textcnn", "embed_dim", "-3", "at least 1"),
    ("textcnn", "max_tokens", "39",
     "at least final_pool_out_len * pool_size**blocks (5 * 2**3)")])
def test_out_of_range_model_key_is_config_error(workspace, tmp_path, capsys,
                                                model, key, value, rule):
    """Rejected before anything is written, naming the key."""
    out = tmp_path / "out"
    (tmp_path / "model.cfg").write_text(f"model.{key}={value}\n")
    code = main(["train", "--model", model, "--corpus",
                 str(workspace / "corpus"), *_fm_flag(workspace, model),
                 "--epochs", "1",
                 "--config", str(tmp_path / "model.cfg"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"config error: model.{key} must be {rule}, "
                          f"got {value}"), err
    assert not out.exists()


@pytest.mark.parametrize("command, model, key", [
    ("train", "fusion", "train.epoch"),
    ("train", "fusion", "modle.hidden"),
    ("train", "crf", "model.hidden"),
    ("train", "textcnn", "model.classes"),
    ("train", "fusion-zero", "model.classes"),
    ("train", "bilstm", "model.n_tags"),
    ("range-test", "fusion", "train.epoch")])
def test_unread_config_key_is_config_error(workspace, tmp_path, capsys,
                                           command, model, key):
    """A key that the run does not read, the pipeline's class and tag
    counts too, exits 1 naming it before anything is written."""
    out = tmp_path / "out"
    value = {"model.classes": "6", "model.n_tags": "12"}.get(key, "1")
    (tmp_path / "run.cfg").write_text(f"{key}={value}\n")
    argv = [command, "--model", model, "--corpus", str(workspace / "corpus"),
            "--config", str(tmp_path / "run.cfg"), "--out", str(out)]
    if command == "train":
        argv += ["--epochs", "1", *_fm_flag(workspace, model)]
    else:
        argv += ["--lr-min", "1e-4", "--lr-max", "1.0", "--steps", "3"]
    assert main(argv) == 1
    assert f"config error: unknown config key {key!r}" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model, settings, sources", [
    ("fusion", ["--epochs", "1", "--batch-size", "100000"],
     "1 epochs set by --epochs of batches of 100000 set by --batch-size"),
    ("bilstm", ["--epochs", "1", "--batch-size", "1000"],
     "1 epochs set by --epochs of batches of 1000 set by --batch-size"),
    ("textcnn", "train.epochs=1\ntrain.batch_size=100000\n",
     "1 epochs set by train.epochs of batches of 100000 set by "
     "train.batch_size")], ids=["fusion", "bilstm", "textcnn-keys"])
def test_one_step_one_cycle_run_is_config_error(workspace, tmp_path, capsys,
                                                model, settings, sources):
    """A one-cycle run of one step exits 1 naming the step count and
    where its epochs and batch size came from, and saves no model."""
    if isinstance(settings, str):
        (tmp_path / "train.cfg").write_text(settings)
        settings = ["--config", str(tmp_path / "train.cfg")]
    out = tmp_path / "out"
    assert main(["train", "--model", model,
                 "--corpus", str(workspace / "corpus"), "--out", str(out),
                 *_fm_flag(workspace, model), *settings]) == 1
    assert ("config error: one-cycle schedule needs at least 2 steps, got "
            f"1: {sources}") in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("option", ["--max-lr", "train.lr"])
def test_diverged_training_exits_3_naming_the_rate(workspace, tmp_path,
                                                   capsys, option):
    """A finite rate that diverges stops at the first non-finite loss,
    names the epoch and the flag or key, and writes no checkpoint; numpy
    warns of no overflow on the way (warnings are errors here)."""
    out = tmp_path / "out"
    argv = ["train", "--model", "fusion", "--corpus", str(workspace / "corpus"),
            "--epochs", "3", "--out", str(out)]
    if option == "train.lr":
        (tmp_path / "train.cfg").write_text("train.lr=1e30\n")
        argv += ["--config", str(tmp_path / "train.cfg")]
    else:
        argv += ["--max-lr", "1e30"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "error: training diverged: loss nan at epoch 0" in err
    assert f"the learning rate 1e+30 set by {option} is too high" in err
    assert not (out / "model.ckpt").exists()


def test_diverging_after_a_saved_epoch_leaves_no_checkpoint(
        workspace, tmp_path, capsys, monkeypatch):
    """The loss turns NaN once epoch 0 has saved its checkpoint: the run
    exits 3 naming epoch 1 and removes that checkpoint, which has no log
    or config beside it.  A checkpoint that a diverged run never
    replaced, an earlier run's, stays."""
    out = tmp_path / "out"
    real = training.train_step

    def late(model, loss_fn):
        step = real(model, loss_fn)
        return lambda idx, lr: (float("nan") if (out / "model.ckpt").exists()
                                else step(idx, lr))

    monkeypatch.setattr(training, "train_step", late)
    argv = ["train", "--model", "fusion", "--corpus",
            str(workspace / "corpus"), "--epochs", "3", "--out", str(out)]
    assert main(argv) == 3
    assert "error: training diverged: loss nan at epoch 1" in \
        capsys.readouterr().err
    assert sorted(out.iterdir()) == []
    monkeypatch.undo()
    shutil.copy(workspace / "fm" / "model.ckpt", out / "model.ckpt")
    earlier = (out / "model.ckpt").read_bytes()
    assert main(argv + ["--max-lr", "1e30"]) == 3
    err = capsys.readouterr().err
    assert "loss nan at epoch 0" in err
    assert "RuntimeWarning" not in err
    assert (out / "model.ckpt").read_bytes() == earlier


def test_predict_line_count_equals_split_pages(workspace, capsys):
    out = workspace / "preds.jsonl"
    assert main(["predict", "--model-checkpoint",
                 str(workspace / "fm" / "model.ckpt"),
                 "--corpus", str(workspace / "corpus"),
                 "--split", "test", "--out", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    pages_file = workspace / "corpus" / "test" / "pages.jsonl"
    assert len(lines) == len(pages_file.read_text().splitlines())
    assert {"lawsuit_id", "page_index", "gold", "pred",
            "pred_tag"} <= set(lines[0])


def test_range_test_outputs(workspace, capsys):
    out = workspace / "rt"
    assert main(["range-test", "--model", "fusion",
                 "--corpus", str(workspace / "corpus"),
                 "--lr-min", "1e-5", "--lr-max", "1.0",
                 "--steps", "25", "--out", str(out)]) == 0
    rows = (out / "range_test.csv").read_text().splitlines()
    lrs = [float(r.split(",")[0]) for r in rows[1:]]
    assert all(a < b for a, b in zip(lrs, lrs[1:]))
    suggested = json.loads((out / "suggested_lr.json").read_text())
    assert 1e-5 <= suggested["suggested_lr"] <= 1.0


def test_range_test_fusion_with_one_page_left_over(workspace, capsys):
    """A batch size that leaves one train page over must not crash
    train-mode BatchNorm: the lone page joins the batch before it."""
    pages = workspace / "corpus" / "train" / "pages.jsonl"
    n_pages = len(pages.read_text().splitlines())
    assert main(["range-test", "--model", "fusion",
                 "--corpus", str(workspace / "corpus"),
                 "--batch-size", str(n_pages - 1), "--lr-min", "1e-5",
                 "--lr-max", "1.0", "--steps", "5",
                 "--out", str(workspace / "rt_lone")]) == 0


def test_range_test_rejects_bad_bounds(workspace, capsys):
    code = main(["range-test", "--model", "fusion",
                 "--corpus", str(workspace / "corpus"),
                 "--lr-min", "1.0", "--lr-max", "0.1",
                 "--steps", "10", "--out", str(workspace / "rt2")])
    assert code == 1


def test_fusion_grid(workspace, capsys, tmp_path):
    out = workspace / "grid"
    assert main(["train", "--model", "fusion",
                 "--corpus", str(workspace / "corpus"),
                 "--out", str(out), "--epochs", "1", "--grid"]) == 0
    results = json.loads((out / "grid_results.json").read_text())
    assert list(results) == ["FM-512", "FM-512-zero", "FM-128", "FM-128-zero"]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--model", "nonsense", "--corpus", "x", "--out", "y"])
    assert exc.value.code == 1


@pytest.mark.parametrize("family, mode", [("fusion", "learned"),
                                          ("fusion-zero", "zero")])
def test_keeper_written_checkpoint_evaluates(workspace, tmp_path, capsys,
                                             family, mode):
    """The file the trainer's keeper writes carries what eval needs."""
    from pageseq.corpus import load_corpus
    from pageseq.fusion import (FusionConfig, corpus_embedding_dims,
                                train_fusion)
    corpus = load_corpus(workspace / "corpus")
    text_dim, image_dim = corpus_embedding_dims(corpus)
    config = FusionConfig(text_dim=text_dim, image_dim=image_dim, hidden=8,
                          missing_mode=mode)
    ckpt = tmp_path / "fm.ckpt"
    train_fusion(corpus, config, seed=4, epochs=2, out_path=ckpt)
    _, meta = load_checkpoint(ckpt)
    assert meta["model"] == family and meta["seed"] == 4
    assert meta["config"]["hidden"] == 8
    capsys.readouterr()
    assert main(["eval", "--model-checkpoint", str(ckpt),
                 "--corpus", str(workspace / "corpus")]) == 0
    assert json.loads(capsys.readouterr().out)["split"] == "test"


def test_keeper_written_textcnn_w_checkpoint_evaluates(workspace, tmp_path,
                                                       capsys):
    from pageseq.corpus import load_corpus
    from pageseq.runconfig import apply_section, load_config
    from pageseq.textcnn import TextCnnConfig, train_text_cnn
    config = TextCnnConfig()
    apply_section(config, "model", load_config(workspace / "cnn.cfg"))
    train_text_cnn(load_corpus(workspace / "corpus"), config, weighted=True,
                   epochs=2, out_path=tmp_path / "model.ckpt")
    assert load_checkpoint(tmp_path / "model.ckpt")[1]["model"] == "textcnn-w"
    assert main(["eval", "--model-checkpoint", str(tmp_path / "model.ckpt"),
                 "--corpus", str(workspace / "corpus")]) == 0


@pytest.mark.parametrize("family", ["fusion", "bilstm-f", "crf"])
def test_train_writes_the_checkpoint_once_per_improvement(workspace,
                                                          monkeypatch, family):
    """Every family keeps its best epoch through the keeper and logs the
    same keys; the checkpoint's meta names the epoch it holds."""
    import pageseq.checkpoint
    saves = []
    save = pageseq.checkpoint.save_checkpoint

    def counted(path, params, meta=None):
        saves.append(meta)
        save(path, params, meta)

    monkeypatch.setattr(pageseq.checkpoint, "save_checkpoint", counted)
    out = workspace / f"saves_{family}"
    fm = ["--fm-checkpoint", str(workspace / "fm" / "model.ckpt")] \
        if family != "fusion" else []
    assert main(["train", "--model", family, "--corpus",
                 str(workspace / "corpus"), "--out", str(out),
                 "--epochs", "4", *fm]) == 0
    rows = [json.loads(l) for l in
            (out / "train_log.jsonl").read_text().splitlines()]
    assert len(saves) == sum(r["saved"] for r in rows) >= 1
    assert [list(r) for r in rows] == [[
        "epoch", "lr", "train_loss", "val_macro_f1", "val_weighted_f1",
        "saved"]] * 4
    _, meta = load_checkpoint(out / "model.ckpt")
    assert meta == saves[-1]
    assert meta["val_macro_f1"] == max(r["val_macro_f1"] for r in rows)
    assert rows[meta["epoch"]]["val_macro_f1"] == meta["val_macro_f1"]


def test_eval_non_utf8_vocab_names_the_file(workspace, tmp_path, capsys):
    assert main(["train", "--model", "textcnn",
                 "--corpus", str(workspace / "corpus"),
                 "--out", str(tmp_path / "cnn"), "--epochs", "2",
                 "--config", str(workspace / "cnn.cfg")]) == 0
    vocab = tmp_path / "cnn" / "vocab.txt"
    vocab.write_bytes(b"ok\n\xff\xfe\n")
    capsys.readouterr()
    assert main(["eval", "--model-checkpoint",
                 str(tmp_path / "cnn" / "model.ckpt"),
                 "--corpus", str(workspace / "corpus")]) == 3
    err = capsys.readouterr().err
    assert str(vocab) in err and "Traceback" not in err


def test_train_grid_rejects_a_non_fusion_model(workspace, capsys):
    code = main(["train", "--model", "textcnn",
                 "--corpus", str(workspace / "corpus"),
                 "--out", str(workspace / "cnn_grid"), "--epochs", "2",
                 "--config", str(workspace / "cnn.cfg"), "--grid"])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not (workspace / "cnn_grid" / "model.ckpt").exists()


def test_range_test_fusion_applies_config(workspace, tmp_path, capsys):
    def run(name, cfg_text):
        argv = ["range-test", "--model", "fusion",
                "--corpus", str(workspace / "corpus"), "--lr-min", "1e-4",
                "--lr-max", "1.0", "--steps", "6", "--out", str(tmp_path / name)]
        if cfg_text is not None:
            (tmp_path / f"{name}.cfg").write_text(cfg_text)
            argv += ["--config", str(tmp_path / f"{name}.cfg")]
        return main(argv)

    assert run("plain", None) == 0
    assert run("narrow", "model.hidden=3\n") == 0
    plain = (tmp_path / "plain" / "range_test.csv").read_text()
    assert (tmp_path / "narrow" / "range_test.csv").read_text() != plain
    capsys.readouterr()
    assert run("bad", "model.banana=1\n") == 1
    assert "model.banana" in capsys.readouterr().err


def test_range_test_takes_seed_and_batch_size_from_config(workspace, tmp_path,
                                                          capsys):
    """train.seed and train.batch_size apply when the flag is absent."""
    def run(name, *extra):
        assert main(["range-test", "--model", "fusion",
                     "--corpus", str(workspace / "corpus"), "--lr-min", "1e-4",
                     "--lr-max", "1.0", "--steps", "6",
                     "--out", str(tmp_path / name), *extra]) == 0
        return (tmp_path / name / "range_test.csv").read_text()

    (tmp_path / "train.cfg").write_text("train.seed=5\ntrain.batch_size=16\n")
    by_config = run("config", "--config", str(tmp_path / "train.cfg"))
    assert by_config == run("flags", "--seed", "5", "--batch-size", "16")
    plain = run("plain")
    assert by_config != plain
    # a flag wins over its key
    assert run("both", "--config", str(tmp_path / "train.cfg"),
               "--seed", "0", "--batch-size", "64") == plain
    capsys.readouterr()
    (tmp_path / "one.cfg").write_text("train.batch_size=1\n")
    assert main(["range-test", "--model", "fusion", "--corpus",
                 str(workspace / "corpus"), "--lr-min", "1e-4", "--lr-max",
                 "1.0", "--config", str(tmp_path / "one.cfg"),
                 "--out", str(tmp_path / "one")]) == 1
    assert "train.batch_size must be at least 2, got 1" in \
        capsys.readouterr().err


def test_range_test_without_usable_pages_exits_3(tmp_path, capsys):
    """No train page has text: the text CNN has nothing to step on, and
    the range test must say so instead of waiting for a batch."""
    (tmp_path / "synth.cfg").write_text(TINY_SYNTH.replace(
        "synth.n_lawsuits=24", "synth.n_lawsuits=12")
        + "synth.missing_text_rate=1.0\n")
    assert main(["gen-synth", "--config", str(tmp_path / "synth.cfg"),
                 "--out", str(tmp_path / "corpus")]) == 0
    capsys.readouterr()
    assert main(["range-test", "--model", "textcnn",
                 "--corpus", str(tmp_path / "corpus"), "--lr-min", "1e-4",
                 "--lr-max", "1.0", "--steps", "5",
                 "--out", str(tmp_path / "rt")]) == 3
    assert "no train page has text" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["textcnn", "fusion", "crf", "bilstm-f"])
@pytest.mark.parametrize("value", ["1", "0"])
def test_train_batch_size_below_two_is_config_error(tmp_path, capsys,
                                                    model, value):
    """Rejected before the corpus loads: the corpus path does not exist,
    which would exit 2."""
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"train.batch_size={value}\n")
    for flags, option in ((["--batch-size", value], "--batch-size"),
                          (["--config", str(cfg)], "train.batch_size")):
        code = main(["train", "--model", model, "--corpus",
                     str(tmp_path / "missing"), "--out", str(tmp_path / "o"),
                     *flags])
        assert code == 1
        assert option in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("model", ["textcnn", "fusion"])
@pytest.mark.parametrize("value", ["1", "0"])
def test_range_test_batch_size_below_two_is_config_error(tmp_path, capsys,
                                                         model, value):
    code = main(["range-test", "--model", model, "--corpus",
                 str(tmp_path / "missing"), "--lr-min", "1e-5",
                 "--lr-max", "1.0", "--batch-size", value,
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "--batch-size" in capsys.readouterr().err


def _trained(workspace, family):
    """A checkpoint of ``family`` trained on the workspace corpus (over
    the workspace FM for crf and the bilstm families), trained once."""
    out = workspace / f"labels_{family}"
    if not (out / "model.ckpt").exists():
        extra = ["--config", str(workspace / "cnn.cfg")] \
            if family == "textcnn" else _fm_flag(workspace, family)
        assert main(["train", "--model", family,
                     "--corpus", str(workspace / "corpus"), "--out", str(out),
                     "--epochs", "2", *extra]) == 0
    return out / "model.ckpt"


@pytest.mark.parametrize("family", ["textcnn", "fusion", "crf", "bilstm",
                                    "bilstm-crf"])
def test_predict_labels_every_page_of_every_family(workspace, capsys,
                                                   family):
    """One line per page in split order, whose class is its collapsed
    tag; a page family's B-/I- are the gold first-page flags."""
    from pageseq.corpus import iter_pages, load_corpus
    from pageseq.iob import iob_collapse
    ckpt = _trained(workspace, family)
    out = workspace / f"labels_{family}.jsonl"
    assert main(["predict", "--model-checkpoint", str(ckpt),
                 "--corpus", str(workspace / "corpus"), "--split", "test",
                 *_fm_flag(workspace, family), "--out", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    pages = list(iter_pages(load_corpus(workspace / "corpus"), "test"))
    assert [(l["lawsuit_id"], l["page_index"], l["gold"]) for l in lines] == \
        [(p.lawsuit_id, p.page_index, p.label) for p in pages]
    tags = [l["pred_tag"] for l in lines]
    assert [l["pred"] for l in lines] == iob_collapse(tags)
    if family in ("textcnn", "fusion"):
        assert [t.startswith("B-") for t in tags] == \
            [p.is_first_page for p in pages]


@pytest.mark.parametrize("command, family", [
    *(("train", family)
      for family in ("textcnn", "textcnn-w", "fusion", "fusion-zero")),
    *((command, family) for command in ("eval", "predict")
      for family in ("textcnn", "fusion"))])
def test_fm_checkpoint_for_a_family_without_an_fm_is_config_error(
        workspace, tmp_path, capsys, command, family):
    """A family that reads no fusion module refuses --fm-checkpoint, even
    a path that does not exist, as an unread config key is refused, and
    writes nothing."""
    out = tmp_path / "out"
    if command == "train":
        argv = ["--model", family, "--epochs", "1"]
    else:
        argv = ["--model-checkpoint", str(_trained(workspace, family))]
    if command != "eval":
        argv += ["--out", str(out)]
    capsys.readouterr()
    assert main([command, *argv, "--corpus", str(workspace / "corpus"),
                 "--fm-checkpoint", str(tmp_path / "missing" / "model.ckpt")
                 ]) == 1
    action = "training" if command == "train" else "evaluation"
    assert capsys.readouterr().err == \
        f"config error: {family} {action} reads no --fm-checkpoint\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("family", ["fusion", "crf"])
def test_vocab_for_a_family_without_one_is_config_error(
        workspace, tmp_path, capsys, command, family):
    """Only the text-CNN families read --vocab; the others refuse it,
    even a path that does not exist, before the corpus is read."""
    ckpt = workspace / "fm" / "model.ckpt" if family == "fusion" \
        else _trained(workspace, family)
    out = tmp_path / "p.jsonl"
    argv = ["--out", str(out)] if command == "predict" else []
    capsys.readouterr()
    assert main([command, "--model-checkpoint", str(ckpt),
                 "--corpus", str(tmp_path / "no-corpus"),
                 *_fm_flag(workspace, family), *argv,
                 "--vocab", str(tmp_path / "missing" / "vocab.txt")]) == 1
    assert capsys.readouterr().err == \
        f"config error: {family} evaluation reads no --vocab\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def wide_corpus(workspace):
    """The workspace corpus's generator at text embedding width 20, not
    16."""
    (workspace / "wide.cfg").write_text(
        TINY_SYNTH.replace("synth.text_dim=16", "synth.text_dim=20"))
    assert main(["gen-synth", "--config", str(workspace / "wide.cfg"),
                 "--out", str(workspace / "wide_corpus")]) == 0
    return workspace / "wide_corpus"


@pytest.mark.parametrize("command, family", [
    *((command, family) for command in ("eval", "predict")
      for family in ("fusion", "crf", "bilstm")),
    ("train", "crf"), ("train", "bilstm")])
def test_embedding_width_mismatch_exits_3_naming_the_checkpoint(
        workspace, wide_corpus, tmp_path, capsys, command, family):
    """The message names the checkpoint that fixes the widths (the FM's
    for crf and bilstm) and both widths."""
    fm = workspace / "fm" / "model.ckpt"
    if command == "train":
        argv = ["--model", family, "--epochs", "1",
                "--out", str(tmp_path / "run")]
    else:
        ckpt = fm if family == "fusion" else _trained(workspace, family)
        argv = ["--model-checkpoint", str(ckpt)]
        if command == "predict":
            argv += ["--out", str(tmp_path / "p.jsonl")]
    capsys.readouterr()
    assert main([command, *argv, "--corpus", str(wide_corpus),
                 *_fm_flag(workspace, family)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fm}: the model takes text embeddings of "
                          "width 16, but page "), err
    assert err.rstrip().endswith("has one of width 20"), err


@pytest.mark.parametrize("family", ["crf", "bilstm"])
def test_sequence_checkpoint_refuses_another_fm(workspace, tmp_path, capsys,
                                                family):
    """A crf or bilstm checkpoint records the digest of the FM it was
    trained over; another FM of the same shape exits 3 naming both
    files.  A checkpoint without the digest evaluates as before."""
    ckpt = _trained(workspace, family)
    other_fm = workspace / "labels_fm_seed1"
    if not (other_fm / "model.ckpt").exists():
        assert main(["train", "--model", "fusion", "--corpus",
                     str(workspace / "corpus"), "--out", str(other_fm),
                     "--epochs", "2", "--seed", "1"]) == 0
    other_fm = other_fm / "model.ckpt"
    argv = ["eval", "--corpus", str(workspace / "corpus"),
            "--fm-checkpoint", str(other_fm)]
    capsys.readouterr()
    assert main([*argv, "--model-checkpoint", str(ckpt)]) == 3
    err = capsys.readouterr().err
    assert str(ckpt) in err and str(other_fm) in err, err
    assert "digest" in err and "Traceback" not in err
    params, meta = load_checkpoint(ckpt)
    del meta["fm_digest"]
    legacy = tmp_path / "legacy.ckpt"
    save_checkpoint(legacy, params, meta)
    assert main([*argv, "--model-checkpoint", str(legacy)]) == 0


def test_train_crf_without_settings_trains_the_library_recipe(tmp_path,
                                                               capsys):
    """On a corpus of more than 64 train lawsuits, `train --model crf`
    with no settings writes the checkpoint that
    ``train_fm_crf(corpus, fm, out_path=...)`` writes, byte for byte."""
    from pageseq.cli import FUSION
    from pageseq.corpus import load_corpus
    from pageseq.experiments import train_fm_crf
    (tmp_path / "synth.cfg").write_text(
        TINY_SYNTH.replace("n_lawsuits=24", "n_lawsuits=100")
        .replace("seed=3", "seed=2"))
    corpus_dir, fm_ckpt = tmp_path / "corpus", tmp_path / "fm" / "model.ckpt"
    assert main(["gen-synth", "--config", str(tmp_path / "synth.cfg"),
                 "--out", str(corpus_dir)]) == 0
    assert main(["train", "--model", "fusion", "--corpus", str(corpus_dir),
                 "--out", str(fm_ckpt.parent), "--epochs", "2"]) == 0
    assert main(["train", "--model", "crf", "--corpus", str(corpus_dir),
                 "--out", str(tmp_path / "crf"),
                 "--fm-checkpoint", str(fm_ckpt)]) == 0
    corpus = load_corpus(corpus_dir)
    assert len(corpus["train"]) > 64
    params, meta = load_checkpoint(fm_ckpt)
    fm = FUSION.model(meta["config"], meta["seed"], None)
    fm.load_state(params)
    train_fm_crf(corpus, fm, out_path=tmp_path / "library.ckpt")
    assert (tmp_path / "crf" / "model.ckpt").read_bytes() == \
        (tmp_path / "library.ckpt").read_bytes()


@pytest.mark.parametrize("family", ["crf", *VARIANTS])
def test_fm_based_run_reproduces_from_any_spelling_of_the_fm(
        workspace, tmp_path, family):
    """A run over an FM re-run from its config.txt, with the FM's path
    spelled another way, writes the same checkpoint and log byte for
    byte; config.txt records each run's spelling, and nothing else
    differs."""
    fm_dir = (workspace / "fm").absolute()
    spellings = [fm_dir / "model.ckpt", fm_dir / ".." / fm_dir.name /
                 "model.ckpt"]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["train", "--model", family,
                 "--corpus", str(workspace / "corpus"), "--out", str(first),
                 "--epochs", "1", "--fm-checkpoint", str(spellings[0])]) == 0
    assert main(["train", "--model", family,
                 "--corpus", str(workspace / "corpus"), "--out", str(second),
                 "--config", str(first / "config.txt"),
                 "--fm-checkpoint", str(spellings[1])]) == 0
    for name in ("model.ckpt", "train_log.jsonl"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    configs = [load_config(run / "config.txt") for run in (first, second)]
    assert [c.pop("train.fm_checkpoint") for c in configs] == \
        [str(path) for path in spellings]
    assert configs[0] == configs[1]


def test_run_without_an_fm_records_no_fm_path(workspace, tmp_path):
    """A fusion run from a crf run's config.txt reads no FM, so its own
    config.txt names none."""
    crf_config = _trained(workspace, "crf").parent / "config.txt"
    assert "train.fm_checkpoint" in load_config(crf_config)
    assert main(["train", "--model", "fusion",
                 "--corpus", str(workspace / "corpus"), "--out", str(tmp_path),
                 "--epochs", "1", "--config", str(crf_config)]) == 0
    config = load_config(tmp_path / "config.txt")
    assert config["train.model"] == "fusion"
    assert "train.fm_checkpoint" not in config


@pytest.mark.parametrize("family", ["crf", "bilstm"])
def test_checkpoint_with_an_fm_path_in_its_meta_still_applies(
        workspace, tmp_path, capsys, family):
    """A crf or bilstm checkpoint whose meta still names its FM's path,
    as every one written before the path left the meta does, evaluates
    and predicts as the same checkpoint without it."""
    fm = str(workspace / "fm" / "model.ckpt")
    params, meta = load_checkpoint(_trained(workspace, family))
    assert "fm_checkpoint" not in meta
    outputs = []
    for name, extra in [("current", {}), ("older", {"fm_checkpoint": fm})]:
        ckpt = tmp_path / f"{name}.ckpt"
        save_checkpoint(ckpt, params, {**meta, **extra})
        argv = ["--model-checkpoint", str(ckpt), "--fm-checkpoint", fm,
                "--corpus", str(workspace / "corpus")]
        capsys.readouterr()
        assert main(["eval", *argv]) == 0
        report = capsys.readouterr().out
        assert main(["predict", *argv,
                     "--out", str(tmp_path / f"{name}.jsonl")]) == 0
        outputs.append((report, (tmp_path / f"{name}.jsonl").read_bytes()))
    assert outputs[0] == outputs[1]


def _trainers():
    from pageseq.experiments import train_fm_crf
    from pageseq.fusion import train_fusion
    from pageseq.seqmodels import VARIANTS, train_seq
    from pageseq.textcnn import train_text_cnn
    return {"textcnn": train_text_cnn, "textcnn-w": train_text_cnn,
            "fusion": train_fusion, "fusion-zero": train_fusion,
            "crf": train_fm_crf, **dict.fromkeys(VARIANTS, train_seq)}


@pytest.mark.parametrize("family", list(_trainers()))
def test_train_without_settings_records_the_trainer_defaults(
        workspace, capsys, family):
    """With no flag or train.* key, a run's epochs, batch size and rate
    are its trainer's keyword defaults, and config.txt records them."""
    import inspect
    defaults = inspect.signature(_trainers()[family]).parameters
    out = workspace / f"defaults_{family}"
    extra = ["--config", str(workspace / "cnn.cfg")] \
        if family.startswith("textcnn") else _fm_flag(workspace, family)
    assert main(["train", "--model", family,
                 "--corpus", str(workspace / "corpus"), "--out", str(out),
                 *extra]) == 0
    config = (out / "config.txt").read_text().splitlines()
    for key, keyword in [("train.epochs", "epochs"),
                         ("train.batch_size", "batch_size"),
                         ("train.lr", "max_lr")]:
        assert f"{key}={defaults[keyword].default}" in config, key
    rows = (out / "train_log.jsonl").read_text().splitlines()
    assert len(rows) == defaults["epochs"].default


def test_every_help_renders_and_every_trainer_declares_the_settings(capsys):
    """--help renders for every subcommand, and every family's trainer
    has a default for each setting the CLI reads from it."""
    import inspect
    from pageseq.cli import FAMILIES, build_parser
    parser = build_parser()
    for command in ["gen-synth", "audit", "train", "eval", "predict",
                    "range-test"]:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--help"])
        assert exc.value.code == 0
        assert f"usage: pageseq {command}" in capsys.readouterr().out
    for name, family in FAMILIES.items():
        params = inspect.signature(family.trainer).parameters
        for keyword in ["seed", "epochs", "batch_size", "max_lr"]:
            assert params[keyword].default is not inspect.Parameter.empty, \
                (name, keyword)


def test_train_grid_applies_the_other_model_keys(workspace, tmp_path,
                                                 monkeypatch, capsys):
    """Every grid config takes the run's model.* keys; the grid sets
    hidden and missing_mode itself, so a key for either exits 1."""
    from pageseq import fusion
    configs = []
    train_fusion = fusion.train_fusion

    def recorded(corpus, config, **kw):
        configs.append(config)
        return train_fusion(corpus, config, **kw)

    monkeypatch.setattr(fusion, "train_fusion", recorded)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("model.dropout=0.1\n")
    argv = ["train", "--model", "fusion", "--corpus",
            str(workspace / "corpus"), "--out", str(tmp_path / "grid"),
            "--epochs", "1", "--grid", "--config", str(cfg)]
    assert main(argv) == 0
    assert [(c.hidden, c.missing_mode, c.dropout) for c in configs] == [
        (512, "learned", 0.1), (512, "zero", 0.1), (128, "learned", 0.1),
        (128, "zero", 0.1)]
    for key, value in [("model.hidden", "16"), ("model.missing_mode", "zero")]:
        cfg.write_text(f"model.dropout=0.1\n{key}={value}\n")
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err, err


def test_train_rejects_a_token_that_a_vocabulary_would_not_load_back(
        workspace, tmp_path, capsys):
    """An empty token (or one with a line break) would shift every later
    id of the saved vocabulary, so the corpus is refused with exit 2,
    naming its line."""
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace / "corpus", corpus)
    path = corpus / "train" / "pages.jsonl"

    def prepend_empty(line):
        rec = json.loads(line)
        rec["text_tokens"] = ["", *(rec["text_tokens"] or [])]
        return json.dumps(rec).encode("utf-8")

    edit_first_line(path, prepend_empty)
    assert main(["train", "--model", "textcnn", "--corpus", str(corpus),
                 "--out", str(tmp_path / "cnn"), "--epochs", "1",
                 "--config", str(workspace / "cnn.cfg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}:1: text_tokens holds ''"), err
    assert not (tmp_path / "cnn" / "vocab.txt").exists()


def _vocab_argv(workspace, tmp_path, command, lines):
    """``command`` on the workspace text CNN with a --vocab file of
    ``lines``, which ``lines`` makes from the saved vocabulary's lines."""
    ckpt = _trained(workspace, "textcnn")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("".join(t + "\n" for t in lines(
        (ckpt.parent / "vocab.txt").read_text().splitlines())))
    argv = [command, "--model-checkpoint", str(ckpt),
            "--corpus", str(workspace / "corpus"), "--vocab", str(vocab)]
    if command == "predict":
        argv += ["--out", str(tmp_path / "p.jsonl")]
    return ckpt, vocab, argv


def _swap_two_pairs(tokens):
    tokens = list(tokens)
    for i, j in [(0, -1), (1, -2)]:
        tokens[i], tokens[j] = tokens[j], tokens[i]
    return tokens


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("lines", [lambda t: t[:3], _swap_two_pairs],
                         ids=["first-three", "two-pairs-swapped"])
def test_vocabulary_other_than_the_checkpoints_exits_3_naming_both(
        workspace, tmp_path, capsys, command, lines):
    """A shorter vocabulary, and one of the same size whose ids name
    other tokens, are both refused before any page is labelled."""
    ckpt, vocab, argv = _vocab_argv(workspace, tmp_path, command, lines)
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert str(ckpt) in err and str(vocab) in err, err
    assert "digests differ" in err and "Traceback" not in err


def test_checkpoint_without_vocab_digest_is_checked_by_size(workspace,
                                                            tmp_path, capsys):
    """A checkpoint written before the digest still evaluates with its own
    vocab.txt; a vocabulary of another size exits 3 naming it."""
    ckpt = _trained(workspace, "textcnn")
    params, meta = load_checkpoint(ckpt)
    del meta["vocab_digest"]
    legacy = tmp_path / "legacy" / "model.ckpt"
    legacy.parent.mkdir()
    save_checkpoint(legacy, params, meta)
    shutil.copy(ckpt.parent / "vocab.txt", legacy.parent / "vocab.txt")
    argv = ["eval", "--model-checkpoint", str(legacy),
            "--corpus", str(workspace / "corpus")]
    assert main(argv) == 0
    short = tmp_path / "short.txt"
    short.write_text("".join((legacy.parent / "vocab.txt")
                             .read_text().splitlines(True)[:3]))
    capsys.readouterr()
    assert main([*argv, "--vocab", str(short)]) == 3
    err = capsys.readouterr().err
    assert str(short) in err and str(legacy) in err, err
    assert "the vocabulary 5 ids" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def other_corpus(workspace):
    """A corpus of the workspace's shape from another seed: its
    vocabulary and its models differ from the workspace corpus's."""
    (workspace / "other.cfg").write_text(
        TINY_SYNTH.replace("synth.seed=3", "synth.seed=5"))
    assert main(["gen-synth", "--config", str(workspace / "other.cfg"),
                 "--out", str(workspace / "other_corpus")]) == 0
    return workspace / "other_corpus"


def _files(root):
    """Every file under ``root`` by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _script_failure(monkeypatch, script, saves):
    """Appends one item to ``saves`` per checkpoint save.  From the second
    fusion validation on, "nan-loss" makes every training loss NaN, and
    "nan-param" puts a NaN into ``fc2.bias`` and reports a better score."""
    import pageseq.checkpoint
    from pageseq import fusion
    save, evaluate, step = (pageseq.checkpoint.save_checkpoint,
                            fusion.evaluate_fusion, training.train_step)
    evaluations = []

    def scripted_evaluate(model, data, gold):
        evaluations.append(1)
        if script == "nan-param" and len(evaluations) > 1:
            model.fc2.params["bias"][0] = np.nan
            return SimpleNamespace(macro_f1=2.0, weighted_f1=0.0)
        return evaluate(model, data, gold)

    def scripted_step(model, loss_fn):
        real = step(model, loss_fn)
        return lambda idx, lr: (float("nan") if script == "nan-loss"
                                and evaluations else real(idx, lr))

    monkeypatch.setattr(pageseq.checkpoint, "save_checkpoint",
                        lambda *args: saves.append(1) or save(*args))
    monkeypatch.setattr(fusion, "evaluate_fusion", scripted_evaluate)
    monkeypatch.setattr(training, "train_step", scripted_step)


ONE_STEP = ["--epochs", "1", "--batch-size", "100000"]
TOO_HIGH = ["--epochs", "3", "--max-lr", "1e30"]
# case: (model, settings, script, exit code, part of the message)
FAILED_RUNS = {
    "one-step-textcnn": ("textcnn", ONE_STEP, None, 1, "at least 2 steps"),
    "one-step-fusion": ("fusion", ONE_STEP, None, 1, "at least 2 steps"),
    "diverged-textcnn": ("textcnn", TOO_HIGH, None, 3, "at epoch 0"),
    "diverged-fusion": ("fusion", TOO_HIGH, None, 3, "at epoch 0"),
    "diverged-after-a-save": ("fusion", ["--epochs", "3"], "nan-loss", 3,
                              "at epoch 1"),
    "non-finite-after-a-save": ("fusion", ["--epochs", "3"], "nan-param", 3,
                                "parameters are not finite"),
}


@pytest.mark.parametrize("earlier", [True, False], ids=["existing", "fresh"])
@pytest.mark.parametrize("case", FAILED_RUNS)
def test_failed_train_leaves_the_run_directory_as_it_was(
        workspace, other_corpus, tmp_path, capsys, monkeypatch, case,
        earlier):
    """A train that exits non-zero leaves an earlier run's directory byte
    for byte (its checkpoint, log, config and vocabulary) and a fresh one
    empty, whether it stopped before its first step, at a diverged loss,
    or at a non-finite parameter after it had saved an epoch."""
    model, settings, script, code, message = FAILED_RUNS[case]
    out = tmp_path / "run"
    if earlier:
        shutil.copytree(_trained(workspace, model).parent, out)
    before = _files(out) if earlier else {}
    saves = []
    _script_failure(monkeypatch, script, saves)
    cnn = ["--config", str(workspace / "cnn.cfg")] if model == "textcnn" \
        else []
    capsys.readouterr()
    assert main(["train", "--model", model, "--corpus", str(other_corpus),
                 "--out", str(out), *settings, *cnn]) == code
    err = capsys.readouterr().err
    assert message in err, err
    assert "Traceback" not in err and "RuntimeWarning" not in err, err
    assert len(saves) == (1 if script else 0)
    assert _files(out) == before


def test_failed_textcnn_run_keeps_the_earlier_vocabulary(
        workspace, other_corpus, tmp_path, capsys):
    """A text-CNN run over another corpus that stops at a one-step
    schedule keeps the earlier run's vocab.txt, whose checkpoint then
    still evaluates."""
    out = tmp_path / "run1"
    shutil.copytree(_trained(workspace, "textcnn").parent, out)
    vocab = (out / "vocab.txt").read_bytes()
    assert main(["train", "--model", "textcnn", "--corpus", str(other_corpus),
                 "--out", str(out), *ONE_STEP]) == 1
    assert (out / "vocab.txt").read_bytes() == vocab
    assert main(["eval", "--model-checkpoint", str(out / "model.ckpt"),
                 "--corpus", str(workspace / "corpus")]) == 0
