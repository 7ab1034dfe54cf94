"""Run the doctest examples embedded in the public-API docstrings.

Every ``Examples`` block in a docstring is executable documentation; this
module keeps them honest.  The README quickstart and the docs/ links get
the same treatment (mirroring the CI docs-lint step) so stale docs fail
the tier-1 suite locally, not just on CI.
"""

import doctest
import re
from pathlib import Path

import pytest

import repro.applications.color_quantization
import repro.autodiff.tensor
import repro.core.design
import repro.core.minibatch
import repro.datasets.federated
import repro.linalg.hadamard
import repro.linalg.khatri_rao
import repro.metrics.clustering
import repro.metrics.compression
import repro.summary
import repro.utils.memory
import repro.utils.timing

MODULES = [
    repro.linalg.khatri_rao,
    repro.linalg.hadamard,
    repro.metrics.clustering,
    repro.metrics.compression,
    repro.core.design,
    repro.core.minibatch,
    repro.autodiff.tensor,
    repro.datasets.federated,
    repro.summary,
    repro.utils.timing,
    repro.utils.memory,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(
        module,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
    )
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"no doctests collected from {module.__name__}"


_REPO_ROOT = Path(__file__).resolve().parents[1]


def test_readme_quickstart_doctests():
    results = doctest.testfile(
        str(_REPO_ROOT / "README.md"),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
    )
    assert results.failed == 0, f"{results.failed} README doctest failures"
    assert results.attempted > 0, "no doctests collected from README.md"


def test_docs_relative_links_resolve():
    docs = [_REPO_ROOT / "README.md", *sorted((_REPO_ROOT / "docs").glob("*.md"))]
    assert len(docs) >= 3, "expected README.md plus the docs/ site"
    broken = []
    for doc in docs:
        text = doc.read_text(encoding="utf-8")
        for target in re.findall(r"\]\(([^)#]+)(?:#[^)]*)?\)", text):
            if "://" in target or target.startswith("mailto:"):
                continue
            if not (doc.parent / target).exists():
                broken.append(f"{doc.name}: {target}")
    assert not broken, f"broken relative links: {broken}"


def test_docs_code_references_resolve():
    """Backticked ``Class.attr`` / ``repro.module`` names in the docs exist.

    Checked: every reference whose first segment is a class exported by
    ``repro`` (``KhatriRaoKMeans._assign``) or that is a dotted ``repro.``
    path (``repro.core._bounds``).  Renaming a private method or module
    the docs cite fails here instead of leaving a dangling reference.
    """
    import importlib

    import repro

    classes = {
        name for name in repro.__all__
        if isinstance(getattr(repro, name), type)
    }
    dotted = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
    docs = [_REPO_ROOT / "README.md", *sorted((_REPO_ROOT / "docs").glob("*.md"))]
    broken = []
    for doc in docs:
        for ref in re.findall(r"`([^`\n]+)`", doc.read_text(encoding="utf-8")):
            ref = ref[:-2] if ref.endswith("()") else ref
            parts = ref.split(".")
            if not dotted.fullmatch(ref):
                continue
            if parts[0] in classes:
                obj, rest = getattr(repro, parts[0]), parts[1:]
            elif parts[0] == "repro":
                # Longest importable module prefix, then attributes.
                for cut in range(len(parts), 0, -1):
                    try:
                        obj = importlib.import_module(".".join(parts[:cut]))
                        break
                    except ImportError:
                        continue
                rest = parts[cut:]
            else:
                continue
            for name in rest:
                if not hasattr(obj, name):
                    broken.append(f"{doc.name}: {ref}")
                    break
                obj = getattr(obj, name)
    assert not broken, f"dangling code references: {broken}"
