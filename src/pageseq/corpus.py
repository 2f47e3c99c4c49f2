"""Dataset model and on-disk corpus formats.

Directory layout::

    root/
      manifest.json                  {"splits": {"train": [ids], ...}}
      <split>/pages.jsonl            one page per line
      <split>/text.emb + text.idx.jsonl     optional text embeddings
      <split>/image.emb + image.idx.jsonl   optional image embeddings

Embedding files are binary: magic ``PSEQEMB1``, a length-prefixed
modality tag (the file's stem, ``text`` or ``image``), u32 dim, u32 row
count, then little-endian float32 rows.  Row order is defined by the
sibling JSONL index (lawsuit_id, page_index, row).  A split has both
files of a modality or neither, and a corpus one width (dim) per
modality, above 0; a file without rows has width 0.  The manifest's
splits are among train, validation and test.

A ``pages.jsonl`` row holds lawsuit_id, page_index, label,
is_first_page and either ``text_tokens`` (an array of non-empty
strings without line breaks, so that a vocabulary file holds each on
its line) or raw OCR ``text`` (a string, tokenised on load by
:func:`pageseq.text.normalize_text`); both null, or absent, means the
page has no text.  :func:`save_corpus` writes ``text_tokens``.

In memory, a loaded corpus holds each distinct token once:
:func:`load_corpus` maps every token (and every label and lawsuit id of
``pages.jsonl``) to one shared ``str`` across all pages and splits, and
each page's ``text_tokens`` is its own list of those strings.  Each
``.emb`` payload is read once into one writable float32 block per split
and modality, and a page's ``text_embedding`` or ``image_embedding`` is
a row view of that block, so writing a row changes only its page.  The
index is read a line at a time and each row is attached as its line is
read, so loading holds little beside the payload.  A page's embedding
keeps its whole block alive: a caller that keeps a few pages of a large
split should copy their rows.

:func:`load_corpus` is the one check of a corpus: each fault it finds,
a NaN or infinite embedding row among them, raises ``CorpusError``
naming the file.  :func:`audit_splits` only counts.
"""

from __future__ import annotations

import json
import os
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .iob import CLASS_TO_ID, CLASSES
from .text import normalize_text, unstorable_token

SPLITS = ["train", "validation", "test"]
EMB_MAGIC = b"PSEQEMB1"
# embedding rows checked for NaN and infinity at once, so that no
# temporary the size of a payload is made
_CHECK_ROWS = 4096


class CorpusError(ValueError):
    """Raised on malformed or inconsistent corpus files."""


@dataclass
class Page:
    lawsuit_id: str
    page_index: int
    label: str
    is_first_page: bool
    text_tokens: list | None = None
    text_embedding: np.ndarray | None = None
    image_embedding: np.ndarray | None = None

    @property
    def has_text(self) -> bool:
        return self.text_tokens is not None or self.text_embedding is not None

    @property
    def has_image(self) -> bool:
        return self.image_embedding is not None


@dataclass
class Lawsuit:
    id: str
    pages: list = field(default_factory=list)

    def labels(self):
        return [p.label for p in self.pages]

    def first_page_flags(self):
        return [p.is_first_page for p in self.pages]


Corpus = dict  # split name -> list[Lawsuit]


def _write_emb(path, idx_path, rows, index):
    with open(path, "wb") as fh:
        fh.write(EMB_MAGIC)
        tag = path.stem.encode("utf-8")
        fh.write(struct.pack("<B", len(tag)))
        fh.write(tag)
        fh.write(struct.pack("<II", rows.shape[1], len(rows)))
        fh.write(np.asarray(rows, dtype="<f4").tobytes(order="C"))
    with open(idx_path, "w", encoding="utf-8") as fh:
        for lawsuit_id, page_index, row in index:
            fh.write(json.dumps({"lawsuit_id": lawsuit_id,
                                 "page_index": page_index, "row": row}) + "\n")


def _read_emb(path, idx_path):
    """Rows (count, dim) of an embedding file, and an iterator over its
    index rows (lawsuit_id, page_index, row) that reads the index one
    line at a time.  The payload is read straight into one writable
    array; no other copy of it is made.  A truncated or inconsistent
    file, a modality tag that is not the file's stem or a malformed
    index row raises ``CorpusError`` naming the file, and so does an
    index that names a row twice."""
    with open(path, "rb") as fh:
        head = fh.read(9)
        if head[:8] != EMB_MAGIC:
            raise CorpusError(f"{path}: bad magic bytes")
        off = 9 + (head[8] if len(head) > 8 else 0)  # past the tag
        head += fh.read(off + 8 - len(head))
        if len(head) < off + 8:
            raise CorpusError(f"{path}: truncated header")
        tag = head[9:off].decode("utf-8", "replace")
        if tag != path.stem:
            raise CorpusError(f"{path}: holds {tag!r} embeddings, not "
                              f"{path.stem!r}")
        dim, count = struct.unpack_from("<II", head, off)
        off += 8
        payload = os.fstat(fh.fileno()).st_size - off
        if payload != 4 * dim * count:
            raise CorpusError(f"{path}: {payload} payload bytes, but the "
                              f"header gives {count} rows of {dim} float32")
        rows = np.empty((count, dim), dtype="<f4")
        if fh.readinto(rows) != payload:
            raise CorpusError(f"{path}: file changed while it was read")
    return rows, _read_index(idx_path, count)


def _read_index(idx_path, count):
    """The index rows (lawsuit_id, page_index, row), each checked and
    yielded as its line is read."""
    taken = np.zeros(count, dtype=bool)  # two pages would share one row view
    lineno = 0
    try:
        with open(idx_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.removesuffix("\n")
                try:
                    rec = json.loads(line)
                    lid, page_index, row = (rec["lawsuit_id"],
                                            rec["page_index"], rec["row"])
                except (ValueError, TypeError, KeyError):
                    raise CorpusError(f"{idx_path}:{lineno}: not an index "
                                      "row with lawsuit_id, page_index and "
                                      "row") from None
                if not (isinstance(lid, str) and type(page_index) is int
                        and type(row) is int and 0 <= row < count):
                    raise CorpusError(f"{idx_path}:{lineno}: bad index row "
                                      f"{line!r} for {count} embedding rows")
                if taken[row]:
                    raise CorpusError(f"{idx_path}:{lineno}: row {row} is "
                                      "named twice")
                taken[row] = True
                yield lid, page_index, row
    except FileNotFoundError:
        raise CorpusError(f"missing index file: {idx_path}") from None
    except UnicodeDecodeError:
        raise CorpusError(f"{idx_path}: not UTF-8 text") from None
    if lineno != count:
        raise CorpusError(f"{idx_path}: index has {lineno} rows, "
                          f"embedding file has {count}")


def save_corpus(corpus: Corpus, root):
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {"splits": {s: [ls.id for ls in corpus.get(s, [])] for s in SPLITS}}
    (root / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, indent=2), encoding="utf-8")
    for split in SPLITS:
        split_dir = root / split
        split_dir.mkdir(exist_ok=True)
        embs = {"text": ([], []), "image": ([], [])}  # name -> rows, index
        with open(split_dir / "pages.jsonl", "w", encoding="utf-8") as fh:
            for lawsuit in corpus.get(split, []):
                for page in lawsuit.pages:
                    fh.write(json.dumps({
                        "lawsuit_id": page.lawsuit_id,
                        "page_index": page.page_index,
                        "label": page.label,
                        "is_first_page": page.is_first_page,
                        "text_tokens": page.text_tokens,
                    }, ensure_ascii=False) + "\n")
                    for name, (rows, idx) in embs.items():
                        row = getattr(page, f"{name}_embedding")
                        if row is not None:
                            idx.append((page.lawsuit_id, page.page_index,
                                        len(rows)))
                            rows.append(row)
        for name, (rows, idx) in embs.items():
            arr = np.asarray(rows, dtype=np.float32) if rows else \
                np.zeros((0, 0), dtype=np.float32)
            _write_emb(split_dir / f"{name}.emb",
                       split_dir / f"{name}.idx.jsonl", arr, idx)


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number", bool: "true or false",
               type(None): "null"}
_PAGE_FIELDS = (("lawsuit_id", str), ("page_index", int), ("label", str),
                ("is_first_page", bool))


def _read_manifest(path) -> dict:
    """Split name -> lawsuit ids, from a checked ``manifest.json``."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise CorpusError(f"{path}: not UTF-8 text") from None
    try:
        manifest = json.loads(text)
    except ValueError:
        raise CorpusError(f"{path}: not valid JSON") from None
    if type(manifest) is not dict:
        raise CorpusError(f"{path}: not a JSON object")
    splits = manifest.get("splits")
    if not (type(splits) is dict and all(
            type(ids) is list and all(type(lid) is str for lid in ids)
            for ids in splits.values())):
        raise CorpusError(f"{path}: splits must be an object that maps each "
                          "split to an array of lawsuit id strings")
    unknown = [split for split in splits if split not in SPLITS]
    if unknown:
        raise CorpusError(f"{path}: split {unknown[0]!r} is not one of "
                          f"{', '.join(SPLITS)}")
    return splits


def _page(raw: bytes, path, lineno, shared: dict) -> Page:
    """One checked line of ``pages.jsonl`` as a page whose strings come
    from, or are added to, ``shared``."""
    try:
        rec = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError:
        raise CorpusError(f"{path}:{lineno}: not UTF-8 text") from None
    except ValueError:
        raise CorpusError(f"{path}:{lineno}: not valid JSON") from None
    fault = _page_fault(rec)
    if fault:
        raise CorpusError(f"{path}:{lineno}: {fault}")
    tokens, text = rec.get("text_tokens"), rec.get("text")
    if text is not None:
        if type(text) is not str:
            raise CorpusError(f"{path}:{lineno}: text must be null or a "
                              f"string, not {_JSON_KINDS[type(text)]}")
        if tokens is not None:
            raise CorpusError(f"{path}:{lineno}: a page has text or "
                              "text_tokens, not both")
        tokens = normalize_text(text)
    if tokens is not None:
        tokens = _shared_tokens(tokens, shared)
        if tokens is None:
            raise CorpusError(f"{path}:{lineno}: text_tokens must be null "
                              "or an array of strings")
        # JSON escapes a line break, so only a row with a backslash or an
        # empty token needs the token-by-token check
        if b"\\" in raw or "" in tokens:
            bad = unstorable_token(tokens)
            if bad is not None:
                raise CorpusError(f"{path}:{lineno}: text_tokens holds "
                                  f"{bad!r}, an empty token or one with a "
                                  "line break")
    lid, label = rec["lawsuit_id"], rec["label"]
    return Page(shared.setdefault(lid, lid), rec["page_index"],
                shared.setdefault(label, label), rec["is_first_page"], tokens)


def _shared_tokens(tokens, shared: dict) -> list | None:
    """A new list of the ``shared`` strings equal to ``tokens`` (adding
    those not seen before), or None when ``tokens`` is not a list of
    str."""
    if type(tokens) is not list or not all(
            type(token) is str for token in tokens):
        return None
    return list(map(shared.setdefault, tokens, tokens))


def _page_fault(rec) -> str | None:
    """What makes a decoded ``pages.jsonl`` line not a page row, or None
    when it is one (``text`` and ``text_tokens`` aside)."""
    if type(rec) is not dict:
        return "not a JSON object"
    for name, kind in _PAGE_FIELDS:
        value = rec.get(name)
        if type(value) is not kind:
            if name not in rec:
                return f"{name} is missing"
            return (f"{name} must be {_JSON_KINDS[kind]}, "
                    f"not {_JSON_KINDS[type(value)]}")
    if rec["label"] not in CLASS_TO_ID:
        return f"unknown label {rec['label']!r}"
    return None


def load_corpus(root) -> Corpus:
    """Reads and checks a corpus saved by :func:`save_corpus`; see the
    module docstring for how it is held in memory."""
    root = Path(root)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise CorpusError(f"missing manifest: {manifest_path}")
    splits = _read_manifest(manifest_path)
    corpus: Corpus = {}
    seen: dict[str, str] = {}
    shared: dict[str, str] = {}  # each distinct string of pages.jsonl, once
    widths = {}  # modality -> its row width and the first file with rows
    for split in SPLITS:
        ids = splits.get(split, [])
        for lid in ids:
            if lid in seen:
                raise CorpusError(f"{manifest_path}: lawsuit {lid} appears "
                                  f"in both {seen[lid]} and {split}")
            seen[lid] = split
        split_dir = root / split
        lawsuits: dict[str, Lawsuit] = {lid: Lawsuit(lid) for lid in ids}
        pages_path = split_dir / "pages.jsonl"
        if not pages_path.exists():
            if ids:
                raise CorpusError(f"missing pages file: {pages_path}")
            corpus[split] = []
            continue
        pages = {}  # (lawsuit id, page index) -> page
        with open(pages_path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                page = _page(raw, pages_path, lineno, shared)
                if page.lawsuit_id not in lawsuits:
                    raise CorpusError(f"{pages_path}:{lineno}: lawsuit "
                                      f"{page.lawsuit_id} not in manifest")
                if (page.lawsuit_id, page.page_index) in pages:
                    raise CorpusError(f"{pages_path}:{lineno}: repeats page "
                                      f"{page.page_index} of {page.lawsuit_id}")
                pages[page.lawsuit_id, page.page_index] = page
                lawsuits[page.lawsuit_id].pages.append(page)
        for name, attr in (("text", "text_embedding"), ("image", "image_embedding")):
            emb_path = split_dir / f"{name}.emb"
            idx_path = split_dir / f"{name}.idx.jsonl"
            if not emb_path.exists():
                if idx_path.exists():
                    raise CorpusError(f"missing embedding file: {emb_path}")
                continue
            rows, index = _read_emb(emb_path, idx_path)
            if len(rows):
                dim, first = widths.setdefault(name, (rows.shape[1], emb_path))
                if rows.shape[1] != dim:
                    raise CorpusError(f"{emb_path}: rows of width "
                                      f"{rows.shape[1]}, but {first} has "
                                      f"rows of width {dim}")
                if not dim:
                    raise CorpusError(f"{emb_path}: rows of width 0")
            finite = np.empty(len(rows), dtype=bool)
            for start in range(0, len(rows), _CHECK_ROWS):
                np.isfinite(rows[start:start + _CHECK_ROWS]).all(
                    axis=1, out=finite[start:start + _CHECK_ROWS])
            for lid, page_index, row in index:
                if lid not in lawsuits:
                    raise CorpusError(f"{idx_path}: references unknown "
                                      f"lawsuit {lid}")
                page = pages.get((lid, page_index))
                if page is None:
                    raise CorpusError(f"{idx_path}: lawsuit {lid} has no page "
                                      f"{page_index} in {pages_path}")
                if getattr(page, attr) is not None:
                    raise CorpusError(f"{idx_path}: page {page_index} of "
                                      f"lawsuit {lid} has two rows")
                if not finite[row]:
                    raise CorpusError(f"{emb_path}: page {page_index} of "
                                      f"lawsuit {lid} has NaN or Inf in "
                                      f"row {row}")
                setattr(page, attr, rows[row])
        for lid, lawsuit in lawsuits.items():
            if not lawsuit.pages:
                raise CorpusError(f"manifest lists lawsuit {lid} with no pages "
                                  f"on disk under {split_dir}")
            lawsuit.pages.sort(key=lambda p: p.page_index)
            for i, page in enumerate(lawsuit.pages):
                if page.page_index != i:
                    raise CorpusError(f"{pages_path}: lawsuit {lid}: page "
                                      f"indices not contiguous at position {i}")
                if not page.has_text and not page.has_image:
                    raise CorpusError(f"{pages_path}: {lid}:{i}: page has "
                                      "neither text nor image data")
        corpus[split] = list(lawsuits.values())
    return corpus


def iter_pages(corpus: Corpus, split):
    for lawsuit in corpus[split]:
        yield from lawsuit.pages


def audit_splits(corpus: Corpus) -> dict:
    """Class counts and missing-modality tallies of each split."""
    class_counts, missing = {}, {}
    for split in SPLITS:
        pages = list(iter_pages(corpus, split)) if split in corpus else []
        counts = Counter(p.label for p in pages)
        class_counts[split] = {c: counts.get(c, 0) for c in CLASSES}
        missing[split] = {
            "pages": len(pages),
            "missing_text": sum(1 for p in pages if not p.has_text),
            "missing_image": sum(1 for p in pages if not p.has_image),
        }
    return {"class_counts": class_counts, "missing": missing}
