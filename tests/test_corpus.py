import gc
import json
import pathlib
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from pageseq import corpus as corpus_io
from pageseq.corpus import (CorpusError, Lawsuit, Page, audit_splits,
                            iter_pages, load_corpus, save_corpus)
from pageseq.synth import (SynthConfig, doc_type_distribution,
                           generate_synthetic, markov_matrix)
from pageseq.text import normalize_text


def small_corpus(**kw):
    kw.setdefault("n_lawsuits", 30)
    kw.setdefault("seed", 11)
    return generate_synthetic(SynthConfig(**kw))


def test_save_load_round_trip(tmp_path):
    _assert_round_trip(small_corpus(), tmp_path)


def _assert_round_trip(corpus, root):
    """Saves ``corpus`` under ``root`` and checks that it loads back
    byte for byte."""
    save_corpus(corpus, root)
    loaded = load_corpus(root)
    for split in corpus:
        assert [ls.id for ls in corpus[split]] == [ls.id for ls in loaded[split]]
        for a, b in zip(corpus[split], loaded[split]):
            assert len(a.pages) == len(b.pages)
            for pa, pb in zip(a.pages, b.pages):
                assert pa.label == pb.label
                assert pa.is_first_page == pb.is_first_page
                assert pa.text_tokens == pb.text_tokens
                for attr in ("text_embedding", "image_embedding"):
                    want, got = getattr(pa, attr), getattr(pb, attr)
                    if want is None:
                        assert got is None
                    else:
                        assert got.dtype == want.dtype
                        assert got.shape == want.shape
                        assert got.tobytes() == want.tobytes()


def test_loaded_tokens_are_shared_across_pages_and_splits(tmp_path):
    save_corpus(small_corpus(), tmp_path)
    loaded = load_corpus(tmp_path)
    first: dict[str, str] = {}
    counts = Counter()
    for split in loaded:
        for page in iter_pages(loaded, split):
            for token in page.text_tokens or ():
                assert first.setdefault(token, token) is token
                counts[token, split] += 1
    # the check above is not vacuous: tokens repeat within and across splits
    assert max(counts.values()) > 1
    assert len({token for token, _ in counts}) < len(counts)
    lists = [page.text_tokens for split in loaded
             for page in iter_pages(loaded, split) if page.text_tokens]
    assert len({id(tokens) for tokens in lists}) == len(lists)


def test_loaded_embeddings_are_rows_of_one_block(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path)
    loaded = load_corpus(tmp_path)
    blocks = []
    for split in loaded:
        for attr in ("text_embedding", "image_embedding"):
            rows = [getattr(p, attr) for p in iter_pages(loaded, split)
                    if getattr(p, attr) is not None]
            block = rows[0].base
            assert block.ndim == 2 and block.shape[0] == len(rows)
            assert block.flags.writeable and block.dtype == np.float32
            assert all(row.base is block and np.shares_memory(row, block)
                       for row in rows)
            blocks.append(block)
            before = [row.copy() for row in rows]
            rows[0][:] = 99.0
            assert all(np.array_equal(row, want)
                       for row, want in zip(rows[1:], before[1:]))
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(blocks) for b in blocks[i + 1:])


def _traced_bytes():
    # pathlib interns every path part it parses, and any such call may be
    # the one after which the interpreter rebuilds its table of interned
    # strings (one 1.9 MB block in a whole test run); that table is not
    # what the call made
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(False, pathlib.__file__)])
    return sum(stat.size for stat in snapshot.statistics("filename"))


def _traced_size(make):
    """What ``make()`` returns, and the traced bytes that stay allocated."""
    gc.collect()
    before = _traced_bytes()
    made = make()
    gc.collect()
    return made, _traced_bytes() - before


def test_loaded_corpus_is_about_as_small_as_generated(tmp_path):
    # Per-token strings or per-page embedding copies roughly double the
    # loaded corpus; this bound keeps either from coming back.
    config = SynthConfig(n_lawsuits=12, seed=11)
    generate_synthetic(config)  # first-call allocations are not the corpus
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        corpus, generated = _traced_size(lambda: generate_synthetic(config))
        save_corpus(corpus, tmp_path)
        del corpus
        _, loaded = _traced_size(lambda: load_corpus(tmp_path))
    finally:
        if started:
            tracemalloc.stop()
    assert loaded <= 1.3 * generated, (loaded, generated)


def test_reading_an_embedding_file_keeps_only_its_payload(tmp_path):
    # The index is read a line at a time, so no list of its lines or rows
    # is held beside the payload (holding both peaked at 1.6x the payload).
    count, dim = 12_000, 128  # the shape of a predict-long image split
    index = [(f"suit-{i // 190:05d}", i % 190, i) for i in range(count)]
    path, idx_path = tmp_path / "image.emb", tmp_path / "image.idx.jsonl"
    corpus_io._write_emb(path, idx_path, np.ones((count, dim), np.float32),
                         index)
    del index

    def read():
        rows, index = corpus_io._read_emb(path, idx_path)
        for _ in index:
            pass
        return rows

    read()  # first-call allocations are not the file's
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rows = read()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert rows.nbytes == 4 * count * dim
    assert peak <= 1.05 * rows.nbytes, (peak, rows.nbytes)


def test_save_twice_is_byte_identical(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path / "a")
    save_corpus(corpus, tmp_path / "b")
    for rel in sorted(p.relative_to(tmp_path / "a")
                      for p in (tmp_path / "a").rglob("*") if p.is_file()):
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes(), rel


def test_manifest_lists_missing_lawsuit(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["splits"]["train"].append("suit-99999")
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorpusError, match="suit-99999"):
        load_corpus(tmp_path)


def test_duplicate_lawsuit_across_splits(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    dup = manifest["splits"]["train"][0]
    manifest["splits"]["test"].append(dup)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorpusError) as err:
        load_corpus(tmp_path)
    assert str(err.value) == (f"{tmp_path / 'manifest.json'}: lawsuit {dup} "
                              "appears in both train and test")


def edit_first_line(path, edit):
    """Replaces line 1 of the file at ``path`` by ``edit(line)``."""
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(edit(first) + b"\n" + rest)


def _rewrite_first_page_row(tmp_path, edit):
    """Saves the small corpus with line 1 of train/pages.jsonl replaced
    by ``edit(line)``; returns the file's path."""
    save_corpus(small_corpus(), tmp_path)
    path = tmp_path / "train" / "pages.jsonl"
    edit_first_line(path, edit)
    return path


def _set_field(name, value):
    def edit(line):
        rec = json.loads(line)
        rec[name] = value
        return json.dumps(rec).encode("utf-8")
    return edit


def _drop_field(name):
    def edit(line):
        rec = json.loads(line)
        del rec[name]
        return json.dumps(rec).encode("utf-8")
    return edit


BAD_PAGE_ROWS = {
    "truncated": (lambda line: line[:len(line) // 2], "not valid JSON"),
    "list": (lambda line: b"[1, 2]", "not a JSON object"),
    "str-page-index": (_set_field("page_index", "0"),
                       "page_index must be an integer, not a string"),
    "bool-page-index": (_set_field("page_index", False),
                        "page_index must be an integer, not true or false"),
    "int-tokens": (_set_field("text_tokens", 5),
                   "text_tokens must be null or an array of strings"),
    "int-token-items": (_set_field("text_tokens", [1, 2]),
                        "text_tokens must be null or an array of strings"),
    "str-first-page": (_set_field("is_first_page", "yes"),
                       "is_first_page must be true or false, not a string"),
    "int-lawsuit-id": (_set_field("lawsuit_id", 7),
                       "lawsuit_id must be a string, not an integer"),
    "null-label": (_set_field("label", None),
                   "label must be a string, not null"),
    "unknown-label": (_set_field("label", "Acordao"),
                      "unknown label 'Acordao'"),
    "no-label": (_drop_field("label"), "label is missing"),
    "not-utf8": (lambda line: line + b"\xff", "not UTF-8 text"),
    "int-text": (_set_field("text", 5),
                 "text must be null or a string, not an integer"),
    "text-and-tokens": (lambda line: _set_field("text", "lei")(
        _set_field("text_tokens", ["lei"])(line)),
        "a page has text or text_tokens, not both"),
    # a vocabulary file holds one token a line, so these would not load back
    "empty-token": (_set_field("text_tokens", ["lei", ""]),
                    "text_tokens holds '', an empty token or one with a "
                    "line break"),
    "cr-token": (_set_field("text_tokens", ["p\rq"]),
                 "text_tokens holds 'p\\rq', an empty token or one with a "
                 "line break"),
    "lf-token": (_set_field("text_tokens", ["a", "p\nq"]),
                 "text_tokens holds 'p\\nq', an empty token or one with a "
                 "line break"),
}


@pytest.mark.parametrize("probe", sorted(BAD_PAGE_ROWS))
def test_bad_page_row_names_file_and_line(tmp_path, probe):
    edit, message = BAD_PAGE_ROWS[probe]
    path = _rewrite_first_page_row(tmp_path, edit)
    with pytest.raises(CorpusError) as info:
        load_corpus(tmp_path)
    assert str(info.value) == f"{path}:1: {message}"


@pytest.mark.parametrize("second_index, message", [
    (0, ":2: repeats page 0 of L1"),
    (2, ": lawsuit L1: page indices not contiguous at position 1")])
def test_bad_page_index_names_the_pages_file(tmp_path, second_index,
                                             message):
    """A repeated index names its line; a gap names the pages file."""
    _tiny_corpus(tmp_path)
    path = tmp_path / "train" / "pages.jsonl"
    first, second = path.read_bytes().splitlines()
    path.write_bytes(first + b"\n"
                     + _set_field("page_index", second_index)(second) + b"\n")
    with pytest.raises(CorpusError) as info:
        load_corpus(tmp_path)
    assert str(info.value) == f"{path}{message}"


BAD_MANIFESTS = {
    "truncated": (lambda text: text[:len(text) // 2], "not valid JSON"),
    "not-utf8": (lambda text: b"\xff" + text, "not UTF-8 text"),
    "list": (lambda text: b"[1, 2]", "not a JSON object"),
    "int-splits": (lambda text: b'{"splits": 3}', "splits must be"),
    "no-splits": (lambda text: b'{"train": []}', "splits must be"),
    "str-split": (lambda text: b'{"splits": {"train": "suit-00000"}}',
                  "splits must be"),
    "int-id": (lambda text: b'{"splits": {"train": [1]}}', "splits must be"),
    "unknown-split": (lambda text: text.replace(b'"validation"', b'"valid"'),
                      "split 'valid' is not one of train, validation, test"),
}


@pytest.mark.parametrize("probe", sorted(BAD_MANIFESTS))
def test_bad_manifest_names_file(tmp_path, probe):
    edit, message = BAD_MANIFESTS[probe]
    save_corpus(small_corpus(), tmp_path)
    path = tmp_path / "manifest.json"
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(CorpusError) as info:
        load_corpus(tmp_path)
    assert str(info.value).startswith(f"{path}: {message}")


def test_page_text_is_tokenised_on_load(tmp_path):
    """A row with raw ``text`` and null or absent ``text_tokens`` loads
    with ``normalize_text(text)`` as its tokens, as shared strings."""
    raw = "Recurso extraordinário: vide Lei 11.419 e o recurso"
    _tiny_corpus(tmp_path)
    path = tmp_path / "train" / "pages.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[0]["text_tokens"] = None
    rows[0]["text"] = raw
    del rows[1]["text_tokens"]
    rows[1]["text"] = raw.upper()
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    pages = load_corpus(tmp_path)["train"][0].pages
    assert pages[0].text_tokens == normalize_text(raw)
    assert pages[0].text_tokens == ["recurso", "extraordinário", "vide",
                                    "LEI_11419", "recurso"]
    assert pages[1].text_tokens == pages[0].text_tokens
    assert all(a is b for a, b in zip(pages[0].text_tokens,
                                      pages[1].text_tokens))
    assert pages[0].text_tokens[0] is pages[0].text_tokens[-1]


def _tiny_corpus(root):
    """One two-page lawsuit with tokens and no embedding rows."""
    pages = [Page("L1", 0, "RE", True, text_tokens=["a", "b"]),
             Page("L1", 1, "RE", False, text_tokens=["b"])]
    save_corpus({"train": [Lawsuit("L1", pages)]}, root)


def _load_or_fail_cleanly(root):
    """Loads, or raises the CorpusError that the CLI reports as exit 2."""
    try:
        load_corpus(root)
    except CorpusError:
        pass


@pytest.mark.parametrize("name", ["manifest.json", "train/pages.jsonl"])
def test_json_truncation_at_every_offset_fails_cleanly(tmp_path, name):
    _tiny_corpus(tmp_path)
    path = tmp_path / name
    blob = path.read_bytes()
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        _load_or_fail_cleanly(tmp_path)


@pytest.mark.parametrize("name", ["manifest.json", "train/pages.jsonl"])
def test_json_byte_flip_at_every_offset_fails_cleanly(tmp_path, name):
    _tiny_corpus(tmp_path)
    path = tmp_path / name
    blob = path.read_bytes()
    rng = np.random.default_rng(14)
    for offset in range(len(blob)):
        for mask in (0xFF, int(rng.integers(1, 256))):
            damaged = bytearray(blob)
            damaged[offset] ^= mask
            path.write_bytes(bytes(damaged))
            _load_or_fail_cleanly(tmp_path)


def test_bad_embedding_magic(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path)
    emb = tmp_path / "train" / "text.emb"
    emb.write_bytes(b"WRONGMAG" + emb.read_bytes()[8:])
    with pytest.raises(CorpusError, match="magic"):
        load_corpus(tmp_path)


def test_shuffled_pages_file_keeps_embeddings_on_their_pages(tmp_path):
    corpus = small_corpus()
    save_corpus(corpus, tmp_path)
    pages_path = tmp_path / "train" / "pages.jsonl"
    lines = pages_path.read_text(encoding="utf-8").splitlines(keepends=True)
    order = np.random.default_rng(0).permutation(len(lines))
    pages_path.write_text("".join(lines[i] for i in order), encoding="utf-8")
    loaded = load_corpus(tmp_path)
    want = {(p.lawsuit_id, p.page_index): p for p in iter_pages(corpus, "train")}
    got = list(iter_pages(loaded, "train"))
    assert len(got) == len(want)
    for page in got:
        orig = want[(page.lawsuit_id, page.page_index)]
        for attr in ("text_embedding", "image_embedding"):
            a, b = getattr(orig, attr), getattr(page, attr)
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_array_equal(a, b)


def _rewrite_index(path, edit):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps(r) + "\n" for r in edit(rows)))


def test_index_row_for_missing_page_names_file(tmp_path):
    save_corpus(small_corpus(), tmp_path)
    idx_path = tmp_path / "train" / "image.idx.jsonl"

    def point_past_end(rows):
        rows[0]["page_index"] = 10_000
        return rows

    _rewrite_index(idx_path, point_past_end)
    with pytest.raises(CorpusError, match="image.idx.jsonl.*no page 10000"):
        load_corpus(tmp_path)


def test_negative_page_index_in_index_rejected(tmp_path):
    save_corpus(small_corpus(), tmp_path)

    def negative(rows):
        rows[0]["page_index"] = -1
        return rows

    _rewrite_index(tmp_path / "train" / "text.idx.jsonl", negative)
    with pytest.raises(CorpusError, match="text.idx.jsonl"):
        load_corpus(tmp_path)


def test_page_with_two_index_rows_rejected(tmp_path):
    save_corpus(small_corpus(), tmp_path)

    def duplicate_first(rows):
        rows[1]["lawsuit_id"] = rows[0]["lawsuit_id"]
        rows[1]["page_index"] = rows[0]["page_index"]
        return rows

    _rewrite_index(tmp_path / "train" / "image.idx.jsonl", duplicate_first)
    with pytest.raises(CorpusError, match="image.idx.jsonl.*two rows"):
        load_corpus(tmp_path)


def test_index_naming_a_row_twice_rejected(tmp_path):
    save_corpus(small_corpus(), tmp_path)

    def reuse_first_row(rows):
        rows[1]["row"] = rows[0]["row"]
        return rows

    _rewrite_index(tmp_path / "train" / "text.idx.jsonl", reuse_first_row)
    with pytest.raises(CorpusError,
                       match="text.idx.jsonl:2: row 0 is named twice"):
        load_corpus(tmp_path)


def _small_emb(tmp_path):
    """A 3-row, 2-dim embedding file and its index."""
    rows = np.arange(6, dtype=np.float32).reshape(3, 2)
    index = [("L1", 0, 0), ("L1", 1, 1), ("L2", 0, 2)]
    path, idx_path = tmp_path / "text.emb", tmp_path / "text.idx.jsonl"
    corpus_io._write_emb(path, idx_path, rows, index)
    return path, idx_path, rows, index


def _read_or_fail_cleanly(path, idx_path):
    """The rows read, or None after a CorpusError that names a file."""
    try:
        rows, index = corpus_io._read_emb(path, idx_path)
        list(index)  # the index is read as it is iterated
        return rows
    except CorpusError as exc:
        assert str(path) in str(exc) or str(idx_path) in str(exc), exc
        return None


def test_emb_truncation_at_every_offset_fails_cleanly(tmp_path):
    path, idx_path, rows, index = _small_emb(tmp_path)
    blob = path.read_bytes()
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        assert _read_or_fail_cleanly(path, idx_path) is None, size
    path.write_bytes(blob)
    got, got_index = corpus_io._read_emb(path, idx_path)
    np.testing.assert_array_equal(got, rows)
    assert list(got_index) == index


def test_emb_byte_flip_at_every_offset_fails_cleanly(tmp_path):
    path, idx_path, _, _ = _small_emb(tmp_path)
    blob = path.read_bytes()
    rng = np.random.default_rng(12)
    for offset in range(len(blob)):
        for mask in (0xFF, int(rng.integers(1, 256))):
            damaged = bytearray(blob)
            damaged[offset] ^= mask
            path.write_bytes(bytes(damaged))
            _read_or_fail_cleanly(path, idx_path)


def test_emb_index_byte_flip_at_every_offset_fails_cleanly(tmp_path):
    path, idx_path, _, _ = _small_emb(tmp_path)
    blob = idx_path.read_bytes()
    rng = np.random.default_rng(13)
    for offset in range(len(blob)):
        for mask in (0xFF, int(rng.integers(1, 256))):
            damaged = bytearray(blob)
            damaged[offset] ^= mask
            idx_path.write_bytes(bytes(damaged))
            _read_or_fail_cleanly(path, idx_path)


@pytest.mark.parametrize("edit", [
    lambda r: r.update(row=10_000), lambda r: r.update(row=-1),
    lambda r: r.update(row="0"), lambda r: r.pop("row"),
    lambda r: r.pop("lawsuit_id"), lambda r: r.update(page_index=1.5)])
def test_bad_index_row_names_file(tmp_path, edit):
    save_corpus(small_corpus(), tmp_path)

    def edit_first(rows):
        edit(rows[0])
        return rows

    _rewrite_index(tmp_path / "train" / "text.idx.jsonl", edit_first)
    with pytest.raises(CorpusError, match="text.idx.jsonl:1"):
        load_corpus(tmp_path)


@pytest.mark.parametrize("split, name, value", [
    ("train", "text", np.nan), ("validation", "image", -np.inf),
    ("test", "text", np.inf)])
def test_non_finite_embedding_names_file_lawsuit_and_page(
        tmp_path, monkeypatch, split, name, value):
    monkeypatch.setattr(corpus_io, "_CHECK_ROWS", 7)  # blocks split a file
    corpus = small_corpus()
    pages = [p for p in iter_pages(corpus, split)
             if getattr(p, f"{name}_embedding") is not None]
    page = pages[len(pages) // 2]
    getattr(page, f"{name}_embedding")[3] = value
    save_corpus(corpus, tmp_path)
    with pytest.raises(CorpusError) as err:
        load_corpus(tmp_path)
    assert str(err.value) == (
        f"{tmp_path / split / name}.emb: page {page.page_index} of lawsuit "
        f"{page.lawsuit_id} has NaN or Inf in row {len(pages) // 2}")


@pytest.mark.parametrize("deleted", [["text.emb"], ["image.emb"],
                                     ["text.emb", "text.idx.jsonl"]],
                         ids=["text", "image", "neither-text-file"])
def test_index_without_its_embedding_file_names_it(tmp_path, deleted):
    """A split has both files of a modality or neither; with neither,
    its pages load without embeddings of that modality."""
    save_corpus(small_corpus(), tmp_path)
    for name in deleted:
        (tmp_path / "test" / name).unlink()
    if len(deleted) == 1:
        with pytest.raises(CorpusError) as err:
            load_corpus(tmp_path)
        assert str(err.value) == \
            f"missing embedding file: {tmp_path / 'test' / deleted[0]}"
    else:
        loaded = load_corpus(tmp_path)
        assert all(p.text_embedding is None
                   for p in iter_pages(loaded, "test"))


def test_embedding_files_of_the_other_modality_name_the_file(tmp_path):
    save_corpus(small_corpus(), tmp_path)
    split = tmp_path / "train"
    for a, b in (("text.emb", "image.emb"),
                 ("text.idx.jsonl", "image.idx.jsonl")):
        (split / a).rename(split / "swap")
        (split / b).rename(split / a)
        (split / "swap").rename(split / b)
    with pytest.raises(CorpusError) as err:
        load_corpus(tmp_path)
    assert str(err.value) == \
        f"{split / 'text.emb'}: holds 'image' embeddings, not 'text'"


def test_truncated_emb_in_corpus_names_file(tmp_path):
    save_corpus(small_corpus(), tmp_path)
    emb = tmp_path / "validation" / "image.emb"
    emb.write_bytes(emb.read_bytes()[:-3])
    with pytest.raises(CorpusError, match="image.emb.*payload"):
        load_corpus(tmp_path)


def test_page_with_neither_text_nor_image_names_the_pages_file(tmp_path):
    save_corpus({"train": [Lawsuit("L", [Page("L", 0, "RE", True)])]},
                tmp_path)
    with pytest.raises(CorpusError) as info:
        load_corpus(tmp_path)
    assert str(info.value) == (f"{tmp_path / 'train' / 'pages.jsonl'}: L:0: "
                               "page has neither text nor image data")


@pytest.mark.parametrize("split, width, message", [
    ("validation", 20, "rows of width 20, but {first} has rows of width 16"),
    ("test", 0, "rows of width 0, but {first} has rows of width 16"),
    ("train", 0, "rows of width 0")], ids=["validation-20", "test-0",
                                          "train-0"])
def test_embedding_width_is_one_per_modality(tmp_path, split, width, message):
    """The first file of a modality with rows, in split order, fixes its
    width; a file of rows of width 0 is refused."""
    corpus = small_corpus(text_dim=16)
    for page in iter_pages(corpus, split):
        if page.text_embedding is not None:
            page.text_embedding = np.ones(width, dtype=np.float32)
    save_corpus(corpus, tmp_path)
    with pytest.raises(CorpusError) as info:
        load_corpus(tmp_path)
    first = tmp_path / "train" / "text.emb"
    assert str(info.value) == \
        f"{tmp_path / split / 'text.emb'}: " + message.format(first=first)


def _emb_shape(path):
    """(dim, count) from the header of an ``.emb`` file."""
    data = path.read_bytes()
    return struct.unpack_from("<II", data, 9 + data[8])


@pytest.mark.parametrize("config", [
    dict(missing_image_rate=1.0, missing_text_rate=0.0),
    dict(split_fractions=(0.8, 0.2, 0.0)),
    dict(split_fractions=(0.0, 0.2, 0.8))],
    ids=["no-image-rows", "no-test-lawsuits", "no-train-lawsuits"])
def test_generated_corpus_with_files_without_rows_loads(tmp_path, config):
    """A file without rows has width 0 and fixes no width, so the
    generator's output loads whatever it leaves out."""
    _assert_round_trip(small_corpus(**config), tmp_path)
    shapes = [_emb_shape(path) for path in tmp_path.glob("*/*.emb")]
    assert (0, 0) in shapes and all(dim for dim, count in shapes if count)


def test_audit_clean_corpus():
    report = audit_splits(small_corpus())
    assert set(report) == {"class_counts", "missing"}
    # recount oracle
    for split in ("train", "validation", "test"):
        counts = Counter(p.label for p in iter_pages(small_corpus(), split))
        for cls, n in report["class_counts"][split].items():
            assert counts.get(cls, 0) == n


def test_generator_deterministic():
    c1 = small_corpus()
    c2 = small_corpus()
    for split in c1:
        for a, b in zip(c1[split], c2[split]):
            assert a.id == b.id
            for pa, pb in zip(a.pages, b.pages):
                np.testing.assert_array_equal(
                    pa.image_embedding, pb.image_embedding)
                assert pa.text_tokens == pb.text_tokens


def test_generator_class_frequencies_near_targets():
    config = SynthConfig(n_lawsuits=250, seed=5)
    corpus = generate_synthetic(config)
    labels = [p.label for split in corpus for p in iter_pages(corpus, split)]
    assert len(labels) > 10_000
    counts = Counter(labels)
    from pageseq.iob import CLASSES
    for cls, target in zip(CLASSES, config.class_freq):
        assert abs(counts[cls] / len(labels) - target) < 0.02, cls


def test_generator_first_page_flags_per_document_run():
    corpus = small_corpus()
    for lawsuit in corpus["train"]:
        for i, page in enumerate(lawsuit.pages):
            prev = lawsuit.pages[i - 1] if i else None
            if page.is_first_page:
                continue
            # interior page always continues the previous page's class
            assert prev is not None and prev.label == page.label


def test_generator_missing_rates():
    corpus = generate_synthetic(SynthConfig(n_lawsuits=150, seed=9))
    pages = [p for s in corpus for p in iter_pages(corpus, s)]
    missing_text = sum(1 for p in pages if p.text_tokens is None)
    assert abs(missing_text / len(pages) - 0.10) < 0.02
    # never both missing
    assert all(p.has_text or p.has_image for p in pages)


def test_generator_missing_text_drops_embedding_too():
    corpus = small_corpus()
    for s in corpus:
        for p in iter_pages(corpus, s):
            assert (p.text_tokens is None) == (p.text_embedding is None)


def test_doc_type_distribution_matches_page_share():
    config = SynthConfig()
    q = doc_type_distribution(config)
    shares = q * np.array(config.doc_len_mean)
    shares = shares / shares.sum()
    np.testing.assert_allclose(shares, config.class_freq, atol=1e-12)


def test_markov_matrix_rows_stochastic():
    for structure in (0.0, 0.5, 1.0):
        m = markov_matrix(SynthConfig(markov_structure=structure))
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(m >= 0)


def test_config_hash_changes_with_fields():
    a = SynthConfig()
    b = SynthConfig(n_lawsuits=301)
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == SynthConfig().config_hash()


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(missing_text_rate=1.5)
    with pytest.raises(ValueError):
        SynthConfig(class_freq=(0.5, 0.5, 0.5, 0, 0, 0))
