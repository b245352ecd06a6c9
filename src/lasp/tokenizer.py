"""Word-level tokenizer with a deterministic hash band for unknown words."""

from __future__ import annotations

import re
import zlib
from importlib import resources

_WORD_RE = re.compile(r"[a-z0-9]+")

PAD_ID = 0
START_ID = 1
END_ID = 2
_FIRST_WORD_ID = 3
VOCAB_SIZE = 4096     # ids the text encoder's embedding table covers
HASH_BAND = 256       # top ids, shared by every unknown word


def _asset_words(name: str) -> list[str]:
    text = resources.files("lasp.assets").joinpath(name).read_text("utf-8")
    return [w for w in text.split() if w]


def default_word_list() -> list[str]:
    """Every word the shipped assets can produce, deduplicated, in order."""
    words: list[str] = []
    seen: set[str] = set()
    for name in ("templates_100.txt", "filler_words.txt", "class_words.txt"):
        for token in _asset_words(name):
            for w in _WORD_RE.findall(token.lower()):
                if w not in seen:
                    seen.add(w)
                    words.append(w)
    return words


class Tokenizer:
    """Total, deterministic word tokenizer.

    Known words get fixed ids; unknown words hash into a reserved band at
    the top of the vocabulary so they are stable across runs.
    """

    def __init__(self, max_len: int = 32):
        words = default_word_list()
        if _FIRST_WORD_ID + len(words) > VOCAB_SIZE - HASH_BAND:
            raise ValueError("word list does not fit below the hash band")
        self.max_len = max_len
        self.vocab = {w: _FIRST_WORD_ID + i for i, w in enumerate(words)}

    def words_of(self, text: str) -> list[str]:
        return _WORD_RE.findall(text.lower())

    def word_id(self, word: str) -> int:
        wid = self.vocab.get(word)
        if wid is None:
            band = zlib.crc32(word.encode("utf-8")) % HASH_BAND
            wid = VOCAB_SIZE - HASH_BAND + band
        return wid

    def ids_of(self, words: list[str]) -> list[int]:
        """[start] + the ids of the first ``max_len - 2`` words + [end]."""
        ids = [self.word_id(w) for w in words[: self.max_len - 2]]
        return [START_ID] + ids + [END_ID]
