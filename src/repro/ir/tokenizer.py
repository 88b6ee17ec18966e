"""Tokenization and keyword-query parsing.

Query keywords in the paper are either single words or quoted phrases
("Note that some keywords are phrases enclosed in quotes", Section VII —
e.g. ``"cardiac arrest" amiodarone``). A :class:`Keyword` models both; a
phrase matches only where its tokens occur consecutively.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

# Underscores are word characters: the DL view's syntactic restriction
# names (``Exists_finding_site_of_Bronchial_Structure``) must tokenize
# as single terms so ordinary keywords do not match them (Section IV-C).
_TOKEN_PATTERN = re.compile(r"[a-z0-9_]+(?:'[a-z0-9_]+)?")

#: Words too common to be useful query terms. Kept deliberately small --
#: clinical text is terse and most words carry signal.
DEFAULT_STOPWORDS = frozenset({
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from",
    "has", "in", "is", "it", "of", "on", "or", "that", "the", "to",
    "was", "were", "with",
})


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens of ``text``, in order."""
    return _TOKEN_PATTERN.findall(text.lower())


def tokenize_without_stopwords(
        text: str,
        stopwords: frozenset[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Tokens of ``text`` minus stopwords (used for vocabulary building)."""
    return [token for token in tokenize(text) if token not in stopwords]


def normalize_term(term: str) -> str:
    """Canonical form of a term for exact-match lookup.

    This is the *single* normalization the
    :class:`~repro.ontology.api.TerminologyService` term dictionary
    files ontology terms under and looks query terms up by, so a
    query-side term always hits the same bucket its ontology-side twin
    was filed under. Hyphenated clinical terms
    ("X-ray", "super-morbidly obese") normalize to their split tokens
    ("x ray") on both sides by construction.
    """
    return " ".join(tokenize(term))


@dataclass(frozen=True)
class Keyword:
    """One query keyword: a single token or a quoted phrase.

    ``tokens`` is never empty; a phrase keyword requires its tokens to be
    adjacent and in order wherever it matches.
    """

    tokens: tuple[str, ...]
    is_phrase: bool = False

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("a keyword needs at least one token")
        if any(not token for token in self.tokens):
            raise ValueError("keyword tokens must be non-empty")

    @classmethod
    def from_text(cls, text: str) -> "Keyword":
        """Build a keyword from raw text; multi-word text is a phrase."""
        tokens = tuple(tokenize(text))
        if not tokens:
            raise ValueError(f"no indexable tokens in {text!r}")
        return cls(tokens=tokens, is_phrase=len(tokens) > 1)

    @property
    def text(self) -> str:
        """Canonical text form (used as the index key)."""
        return " ".join(self.tokens)

    def __str__(self) -> str:
        if self.is_phrase:
            return f'"{self.text}"'
        return self.text


@dataclass(frozen=True)
class KeywordQuery:
    """An ordered set of keywords ``q = {w1, ..., wk}`` (Section III)."""

    keywords: tuple[Keyword, ...]

    def __post_init__(self) -> None:
        if not self.keywords:
            raise ValueError("a query needs at least one keyword")

    @classmethod
    def parse(cls, text: str) -> "KeywordQuery":
        """Parse query syntax: whitespace-separated terms, quoted phrases.

        ``'"cardiac arrest" amiodarone'`` →
        ``[Keyword(cardiac arrest, phrase), Keyword(amiodarone)]``.
        """
        keywords: list[Keyword] = []
        for is_phrase, raw in _split_query(text):
            tokens = tuple(tokenize(raw))
            if not tokens:
                continue
            keywords.append(Keyword(tokens=tokens,
                                    is_phrase=is_phrase or len(tokens) > 1))
        if not keywords:
            raise ValueError(f"no indexable keywords in query {text!r}")
        return cls(tuple(keywords))

    @classmethod
    def of(cls, *terms: str) -> "KeywordQuery":
        """Build a query from pre-split terms (phrases stay phrases)."""
        return cls(tuple(Keyword.from_text(term) for term in terms))

    def __len__(self) -> int:
        return len(self.keywords)

    def __iter__(self):
        return iter(self.keywords)

    def __str__(self) -> str:
        return " ".join(str(keyword) for keyword in self.keywords)


def _split_query(text: str) -> list[tuple[bool, str]]:
    """Split raw query text into (is_quoted, chunk) pairs."""
    chunks: list[tuple[bool, str]] = []
    pattern = re.compile(r'"([^"]*)"|(\S+)')
    for match in pattern.finditer(text):
        quoted, bare = match.groups()
        if quoted is not None:
            chunks.append((True, quoted))
        else:
            chunks.append((False, bare))
    return chunks


def contains_phrase(tokens: Iterable[str], phrase: tuple[str, ...]) -> bool:
    """Whether ``phrase`` occurs consecutively within ``tokens``."""
    token_list = list(tokens)
    width = len(phrase)
    if width == 0 or width > len(token_list):
        return False
    phrase_list = list(phrase)
    for start in range(len(token_list) - width + 1):
        if token_list[start:start + width] == phrase_list:
            return True
    return False
