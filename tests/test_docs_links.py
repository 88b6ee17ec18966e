"""Docs lint: every intra-repo link in the documentation must resolve.

Scans ``README.md`` and ``docs/**/*.md`` for markdown links and inline
file references, and fails on any relative link whose target does not
exist. External URLs, mail links, and pure in-page anchors are skipped.
CI runs this as its docs-lint step, so a renamed file cannot silently
orphan the documentation pointing at it. The instrument catalog is
checked both ways: every instrument ``src/`` emits is documented, and
every documented instrument is still emitted.
"""

import ast
import os
import re

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Inline markdown links: ``[label](target)`` (images included).
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")

_SKIP_SCHEMES = ("http://", "https://", "mailto:")


def documentation_files():
    files = [os.path.join(REPO_ROOT, "README.md")]
    docs_dir = os.path.join(REPO_ROOT, "docs")
    for dirpath, _, filenames in os.walk(docs_dir):
        for filename in sorted(filenames):
            if filename.endswith(".md"):
                files.append(os.path.join(dirpath, filename))
    return files


def relative_links(path):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_SKIP_SCHEMES):
            continue
        if target.startswith("#"):  # in-page anchor
            continue
        yield target.split("#", 1)[0]  # drop any anchor suffix


def anchored_links(path):
    """``(target_path, fragment)`` for every link carrying a fragment;
    in-page anchors yield the source file itself as the target."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_SKIP_SCHEMES) or "#" not in target:
            continue
        file_part, fragment = target.split("#", 1)
        if not file_part:
            yield path, fragment
        elif file_part.endswith(".md"):
            yield os.path.normpath(
                os.path.join(os.path.dirname(path), file_part)), fragment


def heading_slugs(path):
    """GitHub-style anchor slugs of every markdown heading in a file."""
    slugs = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("#"):
                continue
            title = line.lstrip("#").strip()
            slug = re.sub(r"[^\w\- ]", "", title.lower())
            slugs.add(slug.replace(" ", "-"))
    return slugs


@pytest.mark.parametrize("path", documentation_files(),
                         ids=lambda p: os.path.relpath(p, REPO_ROOT))
def test_intra_repo_links_resolve(path):
    dead = []
    for target in relative_links(path):
        resolved = os.path.normpath(
            os.path.join(os.path.dirname(path), target))
        if not os.path.exists(resolved):
            dead.append(target)
    assert not dead, (
        f"{os.path.relpath(path, REPO_ROOT)} has dead links: {dead}")


def test_docs_tree_is_complete():
    """The docs index and the pages it promises all exist."""
    for name in ("README.md", "PAPER_MAP.md", "ARCHITECTURE.md",
                 "OBSERVABILITY.md", "STORAGE.md", "SERVING.md"):
        assert os.path.exists(os.path.join(REPO_ROOT, "docs", name))


def test_docs_index_links_every_page():
    index_path = os.path.join(REPO_ROOT, "docs", "README.md")
    with open(index_path, encoding="utf-8") as handle:
        index = handle.read()
    for name in ("PAPER_MAP.md", "ARCHITECTURE.md", "OBSERVABILITY.md",
                 "EXPERIMENTS.md", "STORAGE.md", "SERVING.md"):
        assert name in index, f"docs/README.md does not link {name}"


@pytest.mark.parametrize("path", documentation_files(),
                         ids=lambda p: os.path.relpath(p, REPO_ROOT))
def test_anchor_fragments_resolve(path):
    """Every ``#fragment`` on a markdown link must match a heading slug
    in the target page (the format spec's table of contents relies on
    these staying stable)."""
    dead = []
    for target, fragment in anchored_links(path):
        if not os.path.exists(target):
            continue  # dead files are test_intra_repo_links_resolve's job
        if fragment not in heading_slugs(target):
            dead.append(f"{os.path.relpath(target, REPO_ROOT)}"
                        f"#{fragment}")
    assert not dead, (
        f"{os.path.relpath(path, REPO_ROOT)} has dead anchors: {dead}")


def test_every_instrument_name_is_documented():
    """docs/OBSERVABILITY.md is the instrument catalog: every span name
    opened anywhere in ``src/`` and every counter constant declared in
    ``repro.core.stats`` must appear in it."""
    span_name = re.compile(r"\.span\(\s*\"([^\"]+)\"")
    counter_constant = re.compile(r"^[A-Z_]+ = \"([a-z_.]+)\"",
                                  re.MULTILINE)
    names = set()
    src_dir = os.path.join(REPO_ROOT, "src", "repro")
    for dirpath, _, filenames in os.walk(src_dir):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(dirpath, filename),
                      encoding="utf-8") as handle:
                text = handle.read()
            names.update(span_name.findall(text))
    stats_path = os.path.join(src_dir, "core", "stats.py")
    with open(stats_path, encoding="utf-8") as handle:
        names.update(counter_constant.findall(handle.read()))

    catalog_path = os.path.join(REPO_ROOT, "docs", "OBSERVABILITY.md")
    with open(catalog_path, encoding="utf-8") as handle:
        catalog = handle.read()
    undocumented = sorted(name for name in names if name not in catalog)
    assert not undocumented, (
        f"instrument names missing from docs/OBSERVABILITY.md: "
        f"{undocumented}")


#: Catalog names ``src/`` builds at run time instead of spelling out:
#: ``DILCache`` prefixes its timer and counters with its namespace
#: (``f"{namespace}.hits"``), and the server counts each response
#: status as ``f"server.responses.{status}"``.
DYNAMIC_INSTRUMENTS = re.compile(
    r"dil_cache\.\w+|server\.responses\.<status>")


def source_strings():
    """Every string constant in ``src/``: a span, counter or timer name
    is emitted only if some module spells it out."""
    strings = set()
    src_dir = os.path.join(REPO_ROOT, "src", "repro")
    for dirpath, _, filenames in os.walk(src_dir):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(dirpath, filename),
                      encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            strings.update(node.value for node in ast.walk(tree)
                           if isinstance(node, ast.Constant)
                           and isinstance(node.value, str))
    return strings


def catalog_names():
    """The instrument names in the first column of every catalog row
    of docs/OBSERVABILITY.md (one row may list several, ``a`` / ``b``)."""
    catalog_path = os.path.join(REPO_ROOT, "docs", "OBSERVABILITY.md")
    names = set()
    with open(catalog_path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("| `"):
                names.update(re.findall(r"`([^`]+)`",
                                        line.split("|")[1]))
    return names


def test_every_documented_instrument_is_emitted():
    """The catalog's other direction: a row whose span, counter or
    timer nothing in ``src/`` emits any more is stale, unless its name
    belongs to an allowlisted dynamic family."""
    names = catalog_names()
    assert "query.search" in names and "dil_cache.hits" in names
    emitted = source_strings()
    stale = sorted(name for name in names
                   if name not in emitted
                   and not DYNAMIC_INSTRUMENTS.fullmatch(name))
    assert not stale, (
        f"docs/OBSERVABILITY.md documents instruments nothing in src/ "
        f"emits: {stale}")


def class_attributes():
    """``{class name: attribute names}`` for every class under
    ``src/repro``: methods, class-level assignments (dataclass fields
    included) and ``self.<name>`` assignments in its methods, plus
    everything its ``src/repro`` base classes define."""
    own: dict[str, set[str]] = {}
    bases: dict[str, set[str]] = {}
    src_dir = os.path.join(REPO_ROOT, "src", "repro")
    for dirpath, _, filenames in os.walk(src_dir):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(dirpath, filename),
                      encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                names = own.setdefault(node.name, set())
                bases.setdefault(node.name, set()).update(
                    base.id for base in node.bases
                    if isinstance(base, ast.Name))
                for item in ast.walk(node):
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        names.add(item.name)
                    targets = (item.targets if isinstance(item, ast.Assign)
                               else [item.target]
                               if isinstance(item, ast.AnnAssign) else [])
                    for target in targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
                        elif (isinstance(target, ast.Attribute)
                              and isinstance(target.value, ast.Name)
                              and target.value.id == "self"):
                            names.add(target.attr)

    def resolved(name, seen=()):
        names = set(own.get(name, ()))
        for base in bases.get(name, ()):
            if base not in seen:
                names |= resolved(base, seen + (name,))
        return names

    return {name: resolved(name) for name in own}


def paper_map_code_references():
    """Every backticked ``Class.attr`` in the Code column of each table
    of docs/PAPER_MAP.md (a call's arguments are ignored; a dotted
    module path ending in a class name is not a ``Class.attr``)."""
    path = os.path.join(REPO_ROOT, "docs", "PAPER_MAP.md")
    column = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("|"):
                column = None
                continue
            cells = [cell.strip() for cell in line.strip().strip("|")
                     .split("|")]
            if column is None:  # a table's header row
                column = cells.index("Code") if "Code" in cells else -1
                continue
            if column < 0 or column >= len(cells):
                continue
            for token in re.findall(r"`([^`]+)`", cells[column]):
                parts = token.split("(", 1)[0].split(".")
                if (len(parts) >= 2 and parts[-2][:1].isupper()
                        and re.fullmatch(r"\w+", parts[-1])):
                    yield parts[-2], parts[-1]


def test_paper_map_code_references_resolve():
    """A renamed or deleted method cannot stay named in the paper map."""
    attributes = class_attributes()
    references = list(paper_map_code_references())
    assert ("DILQueryProcessor", "collect_topk") in references
    stale = sorted(f"{cls}.{attr}" for cls, attr in references
                   if attr not in attributes.get(cls, ()))
    assert not stale, (
        f"docs/PAPER_MAP.md names attributes no class under src/repro "
        f"defines: {stale}")
