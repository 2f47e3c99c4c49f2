"""Property tests: every malformed ``pages.jsonl`` row makes ``pageseq
audit`` exit 2 with a data error, never a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pageseq.cli import main
from pageseq.iob import CLASSES
from test_corpus import _tiny_corpus

VALID = {"lawsuit_id": "L1", "page_index": 0, "label": "RE",
         "is_first_page": True, "text_tokens": ["a", "b"]}
REQUIRED = ("lawsuit_id", "page_index", "label", "is_first_page")
ACCEPTS = {"lawsuit_id": lambda v: type(v) is str,
           "page_index": lambda v: type(v) is int,
           "label": lambda v: type(v) is str,
           "is_first_page": lambda v: type(v) is bool,
           "text_tokens": lambda v: v is None or (
               type(v) is list and all(type(t) is str for t in v)),
           "text": lambda v: v is None or type(v) is str}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _wrong_type(name):
    row = VALID if name != "text" else dict(VALID, text_tokens=None)
    return JSON.filter(lambda v: not ACCEPTS[name](v)).map(
        lambda v: dict(row, **{name: v}))


SCHEMA_FAULTS = st.one_of(
    st.sampled_from(sorted(ACCEPTS)).flatmap(_wrong_type),
    st.sampled_from(REQUIRED).map(
        lambda name: {k: v for k, v in VALID.items() if k != name}),
    st.text(max_size=6).map(lambda text: dict(VALID, text=text)),
    JSON.filter(lambda v: type(v) is not dict))
VALUE_FAULTS = st.one_of(
    st.text(max_size=6).filter(lambda v: v != "L1").map(
        lambda v: dict(VALID, lawsuit_id=v)),
    st.integers().filter(lambda v: v != 0).map(
        lambda v: dict(VALID, page_index=v)),
    st.text(max_size=6).filter(lambda v: v not in CLASSES).map(
        lambda v: dict(VALID, label=v)))


def _json_object(raw):
    try:
        return type(json.loads(raw.decode("utf-8"))) is dict
    except ValueError:
        return False


NOT_A_ROW = st.binary(max_size=24).filter(
    lambda raw: b"\n" not in raw and not _json_object(raw))


@pytest.fixture(scope="module")
def tiny_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    _tiny_corpus(root)
    return root


def _audit_with_first_row(root, raw):
    """Exit code and stderr of ``audit`` with line 1 of
    ``train/pages.jsonl`` replaced by ``raw``, and that file's path."""
    path = root / "train" / "pages.jsonl"
    rest = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(raw + b"\n" + rest)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["audit", "--corpus", str(root)])
    return code, err.getvalue(), path


@given(row=SCHEMA_FAULTS)
def test_row_off_the_schema_exits_2_naming_the_line(tiny_root, row):
    code, err, path = _audit_with_first_row(
        tiny_root, json.dumps(row).encode("utf-8"))
    assert code == 2 and err.startswith(f"data error: {path}:1: "), err


@given(row=VALUE_FAULTS)
def test_row_with_a_bad_value_exits_2(tiny_root, row):
    code, err, path = _audit_with_first_row(
        tiny_root, json.dumps(row).encode("utf-8"))
    assert code == 2 and err.startswith(f"data error: {path}"), err
    assert "Traceback" not in err


@given(raw=NOT_A_ROW)
def test_line_that_is_not_a_json_object_exits_2(tiny_root, raw):
    code, err, path = _audit_with_first_row(tiny_root, raw)
    assert code == 2 and err.startswith(f"data error: {path}:1: "), err
