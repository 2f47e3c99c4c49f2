import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pageseq
from pageseq.checkpoint import load_checkpoint, save_checkpoint
from pageseq.cli import main

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


@pytest.mark.parametrize("family", ["fusion", "bilstm-f"])
def test_train_writes_the_checkpoint_once_per_improvement(workspace,
                                                          monkeypatch, family):
    import pageseq.checkpoint
    import pageseq.cli
    saves = []
    save = pageseq.checkpoint.save_checkpoint

    def counted(path, params, meta=None):
        saves.append(meta)
        save(path, params, meta)

    monkeypatch.setattr(pageseq.checkpoint, "save_checkpoint", counted)
    monkeypatch.setattr(pageseq.cli, "save_checkpoint", counted)
    out = workspace / f"saves_{family}"
    fm = ["--fm-checkpoint", str(workspace / "fm" / "model.ckpt")] \
        if family.startswith("bilstm") else []
    assert main(["train", "--model", family, "--corpus",
                 str(workspace / "corpus"), "--out", str(out),
                 "--epochs", "4", *fm]) == 0
    rows = [json.loads(l) for l in
            (out / "train_log.jsonl").read_text().splitlines()]
    assert len(saves) == sum(r["saved"] for r in rows) >= 1
    _, meta = load_checkpoint(out / "model.ckpt")
    assert meta == saves[-1]
    assert meta["val_macro_f1"] == max(r["val_macro_f1"] for r in rows)


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
