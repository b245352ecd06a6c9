import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lasp.encoders import TextEncoder
from lasp.tokenizer import (END_ID, HASH_BAND, START_ID, VOCAB_SIZE, Tokenizer,
                            default_word_list)

words_st = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1,
                   max_size=12)


@pytest.fixture(scope="module")
def tok():
    return Tokenizer()


def test_default_word_list_fits_vocab(tok):
    words = default_word_list()
    assert len(set(words)) == len(words)
    assert all(tok.vocab[w] < VOCAB_SIZE - HASH_BAND for w in words)


def test_tokenize_brackets_with_start_end(tok):
    ids = tok.ids_of(tok.words_of("a photo of a dog"))
    assert ids[0] == START_ID and ids[-1] == END_ID
    assert len(ids) == 7


def test_tokenize_case_and_punctuation_insensitive(tok):
    ids = lambda text: tok.ids_of(tok.words_of(text))
    assert ids("A PHOTO, of a Dog!") == ids("a photo of a dog")


def test_tokenize_truncates_to_max_len():
    small = Tokenizer(max_len=6)
    ids = small.ids_of(small.words_of("one two three four five six seven"))
    assert len(ids) == 6
    assert ids[0] == START_ID and ids[-1] == END_ID


@given(words_st)
@settings(max_examples=50, deadline=None)
def test_unknown_words_hash_into_band(tok, word):
    wid = tok.word_id(word)
    if word in tok.vocab:
        assert wid < VOCAB_SIZE - HASH_BAND
    else:
        assert VOCAB_SIZE - HASH_BAND <= wid < VOCAB_SIZE


@given(words_st)
@settings(max_examples=50, deadline=None)
def test_word_id_deterministic(word):
    assert Tokenizer().word_id(word) == Tokenizer().word_id(word)


def test_word_list_overflow_rejected(monkeypatch):
    import lasp.tokenizer
    monkeypatch.setattr(lasp.tokenizer, "default_word_list",
                        lambda: [f"w{i}" for i in range(5000)])
    with pytest.raises(ValueError, match="below the hash band"):
        Tokenizer()


def test_every_id_has_an_embedding_row(tok, small_enc):
    te = TextEncoder(small_enc)
    assert te.embedding.shape[0] == VOCAB_SIZE
    ids = tok.ids_of(tok.words_of("zyzzyva quux")) + [VOCAB_SIZE - 1]
    assert te.embed_ids(ids).shape == (len(ids), small_enc.d_tok)
