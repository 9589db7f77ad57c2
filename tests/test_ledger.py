"""The decisions ledger's headings are the titles the project cites."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "notes" / "decisions.md"
#: a citation outside the ledger follows a mention of its file; inside, a
#: cross-reference follows "see", "compare" or "Superseded by"
OUTSIDE = re.compile(r'decisions\.md\W{0,4}"(?=\w)([^"]+)"')
INSIDE = re.compile(r'(?:[Ss]ee|compare|[Ss]uperseded by) "(?=\w)([^"]+)"')


def _collapsed(path):
    # a title wraps across lines, so whitespace is collapsed first
    return " ".join(path.read_text(encoding="utf-8").split())


def test_every_ledger_citation_names_a_heading():
    # a title cut short with a trailing "…" is a prefix of its heading
    headings = [line.lstrip("#").strip()
                for line in LEDGER.read_text(encoding="utf-8").splitlines()
                if re.match(r"#{2,3} ", line)]
    assert len(set(headings)) == len(headings)
    paths = [path for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    paths += [ROOT / name for name in ("README.md", "ROADMAP.md", "CHANGES.md")]
    cited = [(path.name, title) for path in paths
             for title in OUTSIDE.findall(_collapsed(path))]
    cited += [(LEDGER.name, title) for title in INSIDE.findall(_collapsed(LEDGER))]
    unresolved = [
        (name, title) for name, title in cited
        if not (title in headings or title.endswith("…")
                and any(h.startswith(title[:-1]) for h in headings))]
    assert len(cited) > 30
    assert not unresolved
