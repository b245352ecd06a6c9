"""Learnable prompt groups, template banks, and prompt assembly."""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, DataError

PLACEHOLDER = "{}"


@dataclass
class PromptSet:
    """G groups of M learnable prompt vectors plus the shared output bias."""

    vectors: Tensor          # (G, M, d_tok)
    bias: Tensor             # (d,)

    @property
    def groups(self) -> int:
        return self.vectors.shape[0]

    @property
    def m(self) -> int:
        return self.vectors.shape[1]


def init_prompts(groups: int, m: int, d_tok: int, d: int, seed: int) -> PromptSet:
    if groups < 1 or m < 1:
        raise ConfigError(f"need groups >= 1 and m >= 1, got G={groups}, M={m}")
    rng = np.random.default_rng(seed)
    vectors = Tensor(rng.normal(0.0, 0.02, size=(groups, m, d_tok)),
                     requires_grad=True)
    bias = Tensor(np.zeros(d), requires_grad=True)
    return PromptSet(vectors=vectors, bias=bias)


def init_prompts_from_words(text_encoder, tokenizer, words: list[str],
                            groups: int, d: int, seed: int,
                            jitter: float = 0.3) -> PromptSet:
    """Warm-start prompt vectors from the token embeddings of real words.

    Each group gets the same word-embedding backbone plus independent
    Gaussian jitter of scale ``jitter`` so groups start near a meaningful
    context instead of in the flat region around the origin.
    """
    if groups < 1 or not words:
        raise ConfigError("need groups >= 1 and a non-empty word list")
    ids = [tokenizer.word_id(w) for w in words]
    base = text_encoder.embedding[np.asarray(ids)]
    rng = np.random.default_rng(seed)
    vecs = np.stack([base + jitter * rng.standard_normal(base.shape)
                     for _ in range(groups)])
    return PromptSet(Tensor(vecs, requires_grad=True),
                     Tensor(np.zeros(d), requires_grad=True))


@dataclass
class TemplateBank:
    templates: list[str]
    group_of: list[int] = field(default_factory=list)   # template index -> group
    source: str = ""     # the ``load_template_bank`` source; "" if built in code

    def __post_init__(self):
        for t in self.templates:
            if t.count(PLACEHOLDER) != 1:
                raise ConfigError(f"template needs exactly one {PLACEHOLDER!r}: {t!r}")
        if not self.group_of:
            self.group_of = [0] * len(self.templates)

    def __len__(self) -> int:
        return len(self.templates)

    @property
    def groups(self) -> int:
        return max(self.group_of) + 1 if self.group_of else 1

    def indices_of_group(self, g: int) -> list[int]:
        return [i for i, gi in enumerate(self.group_of) if gi == g]


def load_template_bank(source: str) -> TemplateBank:
    """The bank of ``source``: shipped "1" ("a photo of {}"), "6" (surface
    forms of one context; the CLI's ``templates`` default), "34" or "100",
    else the path of a file of one template a line."""
    if source == "1":
        return TemplateBank(["a photo of {}"], source=source)
    if source in ("6", "34", "100"):
        text = resources.files("lasp.assets").joinpath(f"templates_{source}.txt").read_text("utf-8")
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read template file {source}: {exc}") from exc
    templates = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not templates:
        raise ConfigError(f"template source {source!r} is empty")
    return TemplateBank(templates, source=source)


def render_template(template: str, class_name: str) -> str:
    if template.count(PLACEHOLDER) != 1:
        raise ConfigError(f"template needs exactly one {PLACEHOLDER!r}: {template!r}")
    return template.replace(PLACEHOLDER, class_name.replace("_", " "))


def split_templates(bank: TemplateBank, groups: int, seed: int) -> TemplateBank:
    """Balanced random partition of the bank into ``groups`` subsets."""
    n = len(bank)
    if n < groups:
        raise ConfigError(f"cannot split {n} templates into {groups} groups")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    base, extra = divmod(n, groups)
    group_of = [0] * n
    pos = 0
    for g in range(groups):
        size = base + (1 if g < extra else 0)   # larger groups first
        for idx in order[pos : pos + size]:
            group_of[int(idx)] = g
        pos += size
    return TemplateBank(list(bank.templates), group_of, bank.source)


def generate_random_templates(n: int, min_len: int, max_len: int,
                              seed: int) -> TemplateBank:
    """Random filler-word templates with the class placeholder at the end."""
    if not (1 <= min_len <= max_len):
        raise ConfigError(f"bad length range [{min_len}, {max_len}]")
    text = resources.files("lasp.assets").joinpath("filler_words.txt").read_text("utf-8")
    lexicon = [w for w in text.split() if w]
    rng = np.random.default_rng(seed)
    templates = []
    for _ in range(n):
        length = int(rng.integers(min_len, max_len + 1))
        words = [lexicon[int(i)] for i in rng.integers(0, len(lexicon), size=length)]
        templates.append(" ".join(words) + " " + PLACEHOLDER)
    return TemplateBank(templates)


@dataclass
class ClassVocabulary:
    """Base classes (with images) followed by virtual classes (names only)."""

    base_names: list[str]
    virtual_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self._check_unique()

    def _check_unique(self):
        union = self.base_names + self.virtual_names
        if len(set(union)) != len(union):
            dupes = sorted({n for n in union if union.count(n) > 1})
            raise DataError(f"duplicate class names: {dupes}")

    @property
    def all_names(self) -> list[str]:
        return self.base_names + self.virtual_names

    def with_virtual(self, names: list[str]) -> "ClassVocabulary":
        return ClassVocabulary(list(self.base_names),
                               self.virtual_names + list(names))


def assemble_learnable_prompt(context: Tensor, frame: np.ndarray) -> Tensor:
    """The (..., C, S, d_tok) batch of [start, p_1^g..p_M^g, class tokens,
    end] sequences, gradient-connected to ``context``: one group's (M, d_tok)
    prompt vectors, or every group's (G, M, d_tok). ``frame`` holds the C
    constant [start, class tokens, end] rows, shape (C, S - M, d_tok).

    One tape node. Its backward adds each class's prompt-slot grad in class
    order, as the concat of C stacked copies of the context did, so
    ``context`` gets that chain's grad bit for bit.
    """
    *lead, m, d = context.shape
    n, rest, _ = frame.shape
    out = np.empty((*lead, n, rest + m, d))
    out[..., :1, :] = frame[:, :1]
    out[..., 1:1 + m, :] = context.data[..., None, :, :]
    out[..., 1 + m:, :] = frame[:, 1:]

    def bw(g):
        grad = np.zeros_like(context.data)
        for c in range(n):
            grad += g[..., c, 1:1 + m, :]
        context._accum(grad)

    return Tensor._make(out, (context,), bw)
