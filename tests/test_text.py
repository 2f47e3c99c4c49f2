import numpy as np
import pytest

from pageseq.text import PAD_ID, UNK_ID, Vocab, encode, normalize_text


def test_lowercase_and_tokenize():
    assert normalize_text("Recurso EXTRAORDINÁRIO") == ["recurso",
                                                        "extraordinário"]


def test_email_marker():
    toks = normalize_text("contato: fulano.tal@example.com obrigado")
    assert "EMAIL" in toks
    assert not any("@" in t for t in toks)


def test_url_marker():
    toks = normalize_text("visite https://www.stf.jus.br/portal hoje")
    assert toks == ["visite", "URL", "hoje"]


def test_legislation_reference_collapsed():
    toks = normalize_text("nos termos da lei 11.419/2006")
    assert "LEI_114192006" in toks


def test_article_reference_collapsed():
    toks = normalize_text("conforme art. 102 da constituição")
    assert "ART_102" in toks


def test_stop_words_removed():
    toks = normalize_text("o recurso de apelação e a sentença")
    assert "recurso" in toks and "sentença" in toks
    for stop in ("o", "de", "e", "a"):
        assert stop not in toks


def test_mixed_alphanumeric_removed():
    toks = normalize_text("processo abc123 página 7")
    assert "abc123" not in toks
    assert "7" in toks  # pure digits stay


def test_normalization_idempotent():
    raw = "A Lei 8.666 e o e-mail x@y.com em https://z.org"
    once = normalize_text(raw)
    twice = normalize_text(" ".join(once))
    assert once == twice


def test_vocab_reserved_ids():
    v = Vocab.build([["alpha", "beta", "alpha"]])
    assert v.encode_token("alpha") >= 2
    assert v.encode_token("nonexistent") == UNK_ID
    assert len(v) == 4  # two tokens + pad + unk


def test_vocab_deterministic_order():
    lists = [["b", "a", "a", "c", "c"]]
    v1 = Vocab.build(lists)
    v2 = Vocab.build(lists)
    assert v1.tokens == v2.tokens
    # count desc, ties alphabetical
    assert v1.tokens == ["a", "c", "b"]


def test_vocab_min_count():
    v = Vocab.build([["x", "x", "y"]], min_count=2)
    assert v.encode_token("y") == UNK_ID
    assert v.encode_token("x") != UNK_ID


def test_vocab_save_load_round_trip(tmp_path):
    v = Vocab.build([["gamma", "beta", "beta"]])
    path = tmp_path / "vocab.txt"
    v.save(path)
    loaded = Vocab.load(path)
    assert loaded.tokens == v.tokens
    assert loaded.token_to_id == v.token_to_id


@pytest.mark.parametrize("token", ["", "p\rq", "a\nb", "a\r\n"])
def test_vocab_save_rejects_a_token_that_would_not_load_back(tmp_path,
                                                             token):
    """One token a line: an empty token or a line break would shift the
    ids of every later token on load."""
    v = Vocab(["alpha", token, "beta"])
    with pytest.raises(ValueError, match="empty or holds a line break"):
        v.save(tmp_path / "vocab.txt")
    assert not (tmp_path / "vocab.txt").exists()


def test_normalize_text_gives_tokens_a_vocabulary_file_loads_back(tmp_path):
    toks = normalize_text("linha um\r\nlinha\rdois\n\n lei 11.419\r "
                          "a\u2028b \x85 fim\n")
    assert toks and all(t and "\n" not in t and "\r" not in t for t in toks)
    v = Vocab.build([toks])
    v.save(tmp_path / "vocab.txt")
    assert Vocab.load(tmp_path / "vocab.txt").tokens == v.tokens


def test_encode_truncates_and_pads():
    v = Vocab.build([["a", "b"]])
    ids = encode(["a", "b", "a", "b"], v, max_tokens=3)
    assert ids.shape == (3,)
    assert list(ids[:3]) == [v.encode_token("a"), v.encode_token("b"),
                             v.encode_token("a")]
    ids = encode(["a"], v, max_tokens=4)
    assert list(ids[1:]) == [PAD_ID] * 3
    assert ids.dtype == np.int64
