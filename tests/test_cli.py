import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pageseq
from pageseq.checkpoint import load_checkpoint, save_checkpoint
from pageseq import training
from pageseq.cli import main
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


def test_gen_synth_deterministic(workspace, capsys):
    assert main(["gen-synth", "--config", str(workspace / "synth.cfg"),
                 "--out", str(workspace / "corpus_b")]) == 0
    a, b = workspace / "corpus", workspace / "corpus_b"
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        if rel.name == "config.txt":
            continue  # contains the output path-independent config; compare too
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
    assert report["violations"] == []


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
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == [
        f"{page.lawsuit_id}:{page.page_index}: image embedding has NaN or Inf"]


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
                 str(workspace / "corpus"), "--fm-checkpoint",
                 str(workspace / "fm" / "model.ckpt"), "--epochs", "1",
                 "--config", str(tmp_path / "model.cfg"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"config error: model.{key} must be {rule}, "
                          f"got {value}"), err
    assert not out.exists()


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
        extra = {"textcnn": ["--config", str(workspace / "cnn.cfg")],
                 "fusion": []}.get(
            family, ["--fm-checkpoint", str(workspace / "fm" / "model.ckpt")])
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
                 "--fm-checkpoint", str(workspace / "fm" / "model.ckpt"),
                 "--out", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    pages = list(iter_pages(load_corpus(workspace / "corpus"), "test"))
    assert [(l["lawsuit_id"], l["page_index"], l["gold"]) for l in lines] == \
        [(p.lawsuit_id, p.page_index, p.label) for p in pages]
    tags = [l["pred_tag"] for l in lines]
    assert [l["pred"] for l in lines] == iob_collapse(tags)
    if family in ("textcnn", "fusion"):
        assert [t.startswith("B-") for t in tags] == \
            [p.is_first_page for p in pages]


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
                 "--fm-checkpoint", str(fm)]) == 3
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
    ``train_fm_crf(corpus, fm, out_path=...)`` writes."""
    from pageseq.checkpoint import params_digest
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
    cli_params, _ = load_checkpoint(tmp_path / "crf" / "model.ckpt")
    library_params, _ = load_checkpoint(tmp_path / "library.ckpt")
    assert params_digest(cli_params) == params_digest(library_params)


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
        if family.startswith("textcnn") else \
        ["--fm-checkpoint", str(workspace / "fm" / "model.ckpt")]
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
