"""Fixed-vocabulary tokenization, task templating, and synthetic task pairs.

Word-level tokens, no case folding, punctuation split into its own tokens.
The synthetic generator produces a private/public dataset pair whose class
cues are disjoint surface words drawn from the two halves of each class's
keyword pool, plus an unlabeled corpus over the full vocabulary in which
same-class cues co-occur (so their embeddings end up related).
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

PAD_ID, UNK_ID, BOS_ID = 0, 1, 2
SPECIAL_TOKENS = ("<pad>", "<unk>", "<bos>")

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def word_tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


@dataclass(frozen=True)
class Vocab:
    id_to_token: tuple[str, ...]

    def __post_init__(self):
        if self.id_to_token[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise ValueError("vocabulary must start with the special tokens")
        if len(set(self.id_to_token)) != len(self.id_to_token):
            raise ValueError("vocabulary contains duplicate tokens")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.id_to_token)})

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def id_of(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self._index.get(t, UNK_ID) for t in tokens]

    def encode_text(self, text: str) -> list[int]:
        return self.encode(word_tokenize(text))

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]


def build_vocab(corpus_texts: Iterable[str]) -> Vocab:
    """All observed words plus specials; ordered by frequency desc then lexicographic."""
    counts: Counter[str] = Counter()
    n_texts = 0
    for text in corpus_texts:
        n_texts += 1
        counts.update(word_tokenize(text))
    if n_texts == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    ordered = sorted(counts, key=lambda t: (-counts[t], t))
    return Vocab(SPECIAL_TOKENS + tuple(ordered))


@dataclass
class LabeledDataset:
    """Templated, verbalized classification examples."""

    texts: list[str]
    labels: np.ndarray
    n_classes: int
    template_suffix: str
    verbalizers: tuple[tuple[int, ...], ...]
    vocab: Vocab
    split_tags: tuple[str, ...]
    name: str = "dataset"
    _templated: list[np.ndarray] = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.texts) != len(self.labels) or len(self.texts) != len(self.split_tags):
            raise ValueError("texts, labels and split tags must align")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels must lie in [0, n_classes)")
        seen: set[int] = set()
        for ids in self.verbalizers:
            if not ids:
                raise ValueError("verbalizer sets must be non-empty")
            if seen.intersection(ids):
                raise ValueError("verbalizer sets must be disjoint")
            if any(i >= self.vocab.size or i < 0 for i in ids):
                raise ValueError("verbalizer token outside the vocabulary")
            seen.update(ids)
        if len(self.verbalizers) != self.n_classes:
            raise ValueError("one verbalizer set per class is required")
        if not self._templated:
            self._templated = [apply_template(t, self) for t in self.texts]

    def __len__(self) -> int:
        return len(self.texts)

    def templated(self, i: int) -> np.ndarray:
        return self._templated[i]

    @property
    def sequences(self) -> list[np.ndarray]:
        return self._templated

    def subset(self, indices: Sequence[int], name: str | None = None) -> "LabeledDataset":
        idx = list(int(i) for i in indices)
        return LabeledDataset(
            texts=[self.texts[i] for i in idx],
            labels=self.labels[idx],
            n_classes=self.n_classes,
            template_suffix=self.template_suffix,
            verbalizers=self.verbalizers,
            vocab=self.vocab,
            split_tags=tuple(self.split_tags[i] for i in idx),
            name=name or self.name,
            _templated=[self._templated[i] for i in idx],
        )

    def split(self, tag: str) -> "LabeledDataset":
        return self.subset(
            [i for i, t in enumerate(self.split_tags) if t == tag], name=f"{self.name}/{tag}"
        )


def apply_template(text: str, dataset: "LabeledDataset") -> np.ndarray:
    """[bos] + tokens(text + suffix); the answer slot follows the last token."""
    if not text.strip():
        raise ValueError("cannot template an empty text")
    ids = [BOS_ID] + dataset.vocab.encode_text(text + dataset.template_suffix)
    return np.asarray(ids, dtype=np.int64)


# -- synthetic task families --------------------------------------------------


@dataclass(frozen=True)
class SynthTaskSpec:
    """Seeded generator spec for a private/public task pair plus an unlabeled corpus."""

    n_classes: int
    class_keyword_pools: tuple[tuple[str, ...], ...]
    noise_vocab: tuple[str, ...]
    length_range: tuple[int, int]
    keyword_density: float
    seed: int
    verbalizer_words: tuple[tuple[str, ...], ...]
    template_suffix: str = ", it was"
    n_private_train: int = 256
    n_private_test: int = 256
    n_public: int = 256
    n_corpus_sentences: int = 3000
    corpus_verbalizer_rate: float = 0.5

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if len(self.class_keyword_pools) != self.n_classes or len(self.verbalizer_words) != self.n_classes:
            raise ValueError("one keyword pool and one verbalizer set per class")
        flat: set[str] = set()
        for pool in self.class_keyword_pools:
            if len(pool) < 2:
                raise ValueError("keyword pool too small to split into private/public halves")
            if flat.intersection(pool):
                raise ValueError("class keyword pools must be pairwise disjoint")
            flat.update(pool)
        if flat.intersection(self.noise_vocab):
            raise ValueError("keyword pools must be disjoint from the noise vocabulary")
        if not 0 < self.keyword_density <= 1:
            raise ValueError("keyword_density must lie in (0, 1]")
        lo, hi = self.length_range
        if lo < 1 or hi < lo:
            raise ValueError("invalid sentence length range")

    def to_dict(self) -> dict:
        return {
            "n_classes": self.n_classes,
            "class_keyword_pools": [list(p) for p in self.class_keyword_pools],
            "noise_vocab": list(self.noise_vocab),
            "length_range": list(self.length_range),
            "keyword_density": self.keyword_density,
            "seed": self.seed,
            "verbalizer_words": [list(v) for v in self.verbalizer_words],
            "template_suffix": self.template_suffix,
            "n_private_train": self.n_private_train,
            "n_private_test": self.n_private_test,
            "n_public": self.n_public,
            "n_corpus_sentences": self.n_corpus_sentences,
            "corpus_verbalizer_rate": self.corpus_verbalizer_rate,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SynthTaskSpec":
        d = dict(d)
        d["class_keyword_pools"] = tuple(tuple(p) for p in d["class_keyword_pools"])
        d["noise_vocab"] = tuple(d["noise_vocab"])
        d["length_range"] = tuple(d["length_range"])
        d["verbalizer_words"] = tuple(tuple(v) for v in d["verbalizer_words"])
        return cls(**d)


_DEFAULT_POOLS = (
    ("awful", "dire", "bleak", "grim", "sour", "gloomy", "dismal", "harsh"),
    ("bright", "merry", "lively", "sweet", "glad", "sunny", "cozy", "vivid"),
)

_DEFAULT_NOISE = (
    "the", "a", "of", "and", "to", "in", "on", "with", "for", "at", "by",
    "this", "that", "plot", "scene", "film", "story", "actor", "music",
    "ending", "crowd", "stage", "night", "city", "show", "start", "house",
    "room", "light", "sound", "voice", "walk", "turn", "word",
)

_DEFAULT_VERBALIZERS = (("bad", "poor"), ("good", "fine"))


def default_task_spec(seed: int = 0, **overrides) -> SynthTaskSpec:
    """The default two-class sentiment-flavored task family."""
    base = dict(
        n_classes=2,
        class_keyword_pools=_DEFAULT_POOLS,
        noise_vocab=_DEFAULT_NOISE,
        length_range=(8, 16),
        keyword_density=0.22,
        seed=seed,
        verbalizer_words=_DEFAULT_VERBALIZERS,
    )
    base.update(overrides)
    return SynthTaskSpec(**base)


def _pool_halves(pool: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    mid = len(pool) // 2
    return tuple(pool[:mid]), tuple(pool[mid:])


def _sentence(rng: np.random.Generator, cues: Sequence[str], noise: Sequence[str], spec: SynthTaskSpec) -> str:
    lo, hi = spec.length_range
    length = int(rng.integers(lo, hi + 1))
    words = []
    for _ in range(length):
        if rng.random() < spec.keyword_density:
            words.append(cues[int(rng.integers(0, len(cues)))])
        else:
            words.append(noise[int(rng.integers(0, len(noise)))])
    return " ".join(words)


def _labeled(spec: SynthTaskSpec, rng, cue_sets, n: int, tags, vocab, name) -> LabeledDataset:
    labels = np.array([i % spec.n_classes for i in range(n)], dtype=np.int64)
    rng.shuffle(labels)
    texts = [_sentence(rng, cue_sets[y], spec.noise_vocab, spec) for y in labels]
    verb_ids = tuple(tuple(vocab.id_of(w) for w in ws) for ws in spec.verbalizer_words)
    return LabeledDataset(
        texts=texts,
        labels=labels,
        n_classes=spec.n_classes,
        template_suffix=spec.template_suffix,
        verbalizers=verb_ids,
        vocab=vocab,
        split_tags=tags,
        name=name,
    )


def gen_synth_pair(spec: SynthTaskSpec) -> tuple[LabeledDataset, LabeledDataset, list[str]]:
    """(private with train/test tags, public, unlabeled corpus texts)."""
    rng = np.random.default_rng(spec.seed)
    halves = [_pool_halves(p) for p in spec.class_keyword_pools]
    private_cues = [h[0] for h in halves]
    public_cues = [h[1] for h in halves]

    corpus: list[str] = []
    suffix_words = word_tokenize(spec.template_suffix)
    for _ in range(spec.n_corpus_sentences):
        c = int(rng.integers(0, spec.n_classes + 1))
        if c == spec.n_classes:
            text = _sentence(rng, spec.noise_vocab, spec.noise_vocab, spec)
        else:
            text = _sentence(rng, spec.class_keyword_pools[c], spec.noise_vocab, spec)
            if rng.random() < spec.corpus_verbalizer_rate:
                verb = spec.verbalizer_words[c][int(rng.integers(0, len(spec.verbalizer_words[c])))]
                text = text + " " + " ".join(suffix_words) + " " + verb
        corpus.append(text)

    all_words = corpus + [
        " ".join(sum((list(p) for p in spec.class_keyword_pools), [])),
        " ".join(spec.noise_vocab),
        " ".join(w for ws in spec.verbalizer_words for w in ws),
        spec.template_suffix,
    ]
    vocab = build_vocab(all_words)

    n_pri = spec.n_private_train + spec.n_private_test
    tags = tuple(["train"] * spec.n_private_train + ["test"] * spec.n_private_test)
    private = _labeled(spec, rng, private_cues, n_pri, tags, vocab, "private")
    public = _labeled(spec, rng, public_cues, spec.n_public, ("train",) * spec.n_public, vocab, "public")
    return private, public, corpus


def tokenize_corpus(corpus: Sequence[str], vocab: Vocab) -> list[np.ndarray]:
    """[bos]-prefixed id sequences for language-model training."""
    return [np.asarray([BOS_ID] + vocab.encode_text(t), dtype=np.int64) for t in corpus]


def with_label_noise(dataset: LabeledDataset, fraction: float, seed: int) -> LabeledDataset:
    """Copy of the dataset with a seeded fraction of labels flipped to another
    class; the atypical examples this creates are what membership attacks
    latch onto."""
    if not 0 <= fraction < 1:
        raise ValueError("fraction must lie in [0, 1)")
    noisy = dataset.subset(range(len(dataset)), name=f"{dataset.name}/noisy")
    if fraction == 0 or len(dataset) == 0:
        return noisy
    rng = np.random.default_rng(seed)
    labels = noisy.labels.copy()
    rows = rng.choice(len(dataset), size=int(fraction * len(dataset)), replace=False)
    offsets = rng.integers(1, dataset.n_classes, size=rows.size)
    labels[rows] = (labels[rows] + offsets) % dataset.n_classes
    noisy.labels = labels
    return noisy


def write_manifest(path, spec: SynthTaskSpec, vocab: Vocab) -> None:
    manifest = {
        "spec": spec.to_dict(),
        "seed": spec.seed,
        "vocab_size": vocab.size,
        "sizes": {
            "private_train": spec.n_private_train,
            "private_test": spec.n_private_test,
            "public": spec.n_public,
            "corpus_sentences": spec.n_corpus_sentences,
        },
        "class_names": [f"class_{i}" for i in range(spec.n_classes)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


# -- CSV ----------------------------------------------------------------------


def load_csv(
    path,
    template_suffix: str,
    verbalizer_words: Sequence[Sequence[str]],
    vocab: Vocab,
    split_tag: str = "train",
    name: str | None = None,
) -> LabeledDataset:
    """Load a `text,label` CSV against an existing vocabulary."""
    verb_ids = []
    for ws in verbalizer_words:
        ids = []
        for w in ws:
            if w not in vocab:
                raise ValueError(f"verbalizer word {w!r} is not in the vocabulary")
            ids.append(vocab.id_of(w))
        verb_ids.append(tuple(ids))
    n_classes = len(verb_ids)

    texts: list[str] = []
    labels: list[int] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"text", "label"}.issubset(reader.fieldnames):
            raise ValueError(f"{path}: CSV must have a 'text,label' header")
        for row_no, row in enumerate(reader, start=2):
            try:
                label = int(row["label"])
            except (TypeError, ValueError):
                raise ValueError(f"{path}: row {row_no}: label {row['label']!r} is not an integer")
            if not 0 <= label < n_classes:
                raise ValueError(
                    f"{path}: row {row_no}: label {label} out of range for {n_classes} classes"
                )
            if not (row["text"] or "").strip():
                raise ValueError(f"{path}: row {row_no}: empty text")
            texts.append(row["text"])
            labels.append(label)

    return LabeledDataset(
        texts=texts,
        labels=np.asarray(labels, dtype=np.int64),
        n_classes=n_classes,
        template_suffix=template_suffix,
        verbalizers=tuple(verb_ids),
        vocab=vocab,
        split_tags=(split_tag,) * len(texts),
        name=name or str(path),
    )


def write_csv(dataset: LabeledDataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        for text, label in zip(dataset.texts, dataset.labels):
            writer.writerow([text, int(label)])
