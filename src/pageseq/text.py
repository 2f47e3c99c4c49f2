"""Text preprocessing: normalisation rules and the training-split vocabulary.

Normalisation applies, in order: lower-casing, e-mail and URL
tokenisation (EMAIL / URL markers), collapsing of legislation references
("lei 11.419" becomes LEI_11419), word tokenisation, stop-word removal
(fixed Portuguese list shipped with the package) and removal of mixed
alphanumeric tokens.  Marker tokens are canonicalised back to their
uppercase form, which makes the whole pipeline idempotent.
"""

from __future__ import annotations

import hashlib
import re
from functools import lru_cache
from importlib import resources

import numpy as np

PAD_ID = 0
UNK_ID = 1

_EMAIL_RE = re.compile(r"[\w.+-]+@[\w-]+\.[\w.-]+")
_URL_RE = re.compile(r"(?:https?://|www\.)\S+")

_LAW_KEYWORDS = ("lei", "leis", "artigo", "art", "inciso", "decreto",
                 "portaria", "resolução", "resolucao", "súmula", "sumula",
                 "parágrafo", "paragrafo")
_LAW_RE = re.compile(
    r"\b(" + "|".join(_LAW_KEYWORDS) + r")[\s.ºª°n_-]*(\d[\d./_-]*)",
    re.IGNORECASE,
)
_TOKEN_RE = re.compile(r"\w+", re.UNICODE)
_MARKERS = {"email": "EMAIL", "url": "URL"}


@lru_cache(maxsize=1)
def stop_words() -> frozenset:
    text = resources.files("pageseq.data").joinpath("stopwords_pt.txt") \
        .read_text(encoding="utf-8")
    return frozenset(w for w in text.split() if w)


def _law_marker(match) -> str:
    keyword = match.group(1).upper()
    digits = re.sub(r"\D", "", match.group(2))
    return f" {keyword}_{digits} "


def normalize_text(raw: str) -> list:
    """Applies the documented preprocessing rules; empty output is allowed."""
    text = raw.lower()
    text = _EMAIL_RE.sub(" EMAIL ", text)
    text = _URL_RE.sub(" URL ", text)
    text = _LAW_RE.sub(_law_marker, text)
    stops = stop_words()
    tokens = []
    for tok in _TOKEN_RE.findall(text):
        if tok in _MARKERS:
            tokens.append(_MARKERS[tok])
            continue
        if tok.isupper() or (tok[0].isupper() and "_" in tok):
            tokens.append(tok)  # marker produced above
            continue
        if tok in stops:
            continue
        if re.search(r"[^\W\d_]", tok) and re.search(r"\d", tok):
            continue  # mixed alphanumeric
        tokens.append(tok)
    return tokens


def unstorable_token(tokens):
    """The first of ``tokens`` that is empty or holds a line break, which
    a vocabulary file would not read back as itself, or None."""
    return next((t for t in tokens if not t or "\n" in t or "\r" in t),
                None)


class Vocab:
    """token -> id map; id 0 is padding, id 1 unknown.

    Built from the training split only; token order is by descending
    count with ties broken alphabetically, so building is deterministic.
    """

    def __init__(self, tokens: list):
        self.tokens = list(tokens)
        self.token_to_id = {t: i + 2 for i, t in enumerate(self.tokens)}

    @classmethod
    def build(cls, token_lists) -> "Vocab":
        counts: dict[str, int] = {}
        for toks in token_lists:
            for t in toks:
                counts[t] = counts.get(t, 0) + 1
        return cls(sorted(counts, key=lambda t: (-counts[t], t)))

    def __len__(self):
        return len(self.tokens) + 2

    def encode_token(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def digest(self) -> str:
        """SHA-256 hex digest of the tokens in id order: that of the file
        :meth:`save` writes."""
        text = "".join(t + "\n" for t in self.tokens)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def save(self, path):
        """Writes one token per line; a token that is empty or holds a
        line break raises ``ValueError``, as it would not read back."""
        bad = unstorable_token(self.tokens)
        if bad is not None:
            raise ValueError(f"vocabulary token {bad!r} is empty or holds "
                             "a line break")
        with open(path, "w", encoding="utf-8") as fh:
            for t in self.tokens:
                fh.write(t + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        """Reads a vocabulary written by :meth:`save`; a file that is not
        UTF-8 raises ``ValueError`` naming it."""
        try:
            with open(path, encoding="utf-8") as fh:
                return cls([line.rstrip("\n") for line in fh
                            if line.rstrip("\n")])
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: vocabulary is not UTF-8 "
                             f"({exc.reason} at byte {exc.start})") from None


def encode(tokens, vocab: Vocab, max_tokens) -> np.ndarray:
    """First ``max_tokens`` token ids, padded with 0 to exact length."""
    ids = [vocab.encode_token(t) for t in tokens[:max_tokens]]
    ids.extend([PAD_ID] * (max_tokens - len(ids)))
    return np.asarray(ids, dtype=np.int64)
