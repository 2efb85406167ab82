"""Repository hygiene checks (a lightweight, dependency-free linter).

These keep the codebase consistent without external tooling:

* every library module compiles and carries a module docstring;
* the library never prints to stdout (the CLI and reporting layer are the
  only sanctioned exceptions);
* no library module imports the test suite or the benchmarks;
* public modules avoid ``from x import *``;
* every repository path a document or docstring cites exists.
"""

import ast
import glob
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))

#: Modules whose job is writing to stdout.
PRINT_ALLOWED = {"cli.py", "__main__.py"}


def module_id(path: Path) -> str:
    return str(path.relative_to(SRC.parent))


@pytest.mark.parametrize("path", MODULES, ids=module_id)
class TestModuleHygiene:
    def _tree(self, path: Path) -> ast.Module:
        return ast.parse(path.read_text(encoding="utf-8"))

    def test_compiles(self, path):
        compile(path.read_text(encoding="utf-8"), str(path), "exec")

    def test_has_module_docstring(self, path):
        tree = self._tree(path)
        assert ast.get_docstring(tree), f"{module_id(path)} lacks a docstring"

    def test_no_stray_prints(self, path):
        if path.name in PRINT_ALLOWED:
            pytest.skip("stdout is this module's job")
        tree = self._tree(path)
        offenders = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ]
        assert not offenders, (
            f"{module_id(path)} calls print() at lines {offenders}"
        )

    def test_no_star_imports(self, path):
        tree = self._tree(path)
        stars = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and any(alias.name == "*" for alias in node.names)
        ]
        assert not stars, f"{module_id(path)} star-imports at {stars}"

    def test_no_test_or_bench_imports(self, path):
        tree = self._tree(path)
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            for name in names:
                root = name.split(".")[0]
                assert root not in {"tests", "benchmarks", "pytest"}, (
                    f"{module_id(path)} imports {name}"
                )


class TestPublicApiSurface:
    def test_all_lists_are_sorted_sets(self):
        """__all__ entries are unique (duplicates mask export bugs)."""
        import repro

        assert len(repro.__all__) == len(set(repro.__all__))

    def test_every_module_reachable_from_package(self):
        """Import every module explicitly — catches syntax errors in files
        no test happens to touch."""
        import importlib

        for path in MODULES:
            relative = path.relative_to(SRC.parent)
            dotted = str(relative.with_suffix("")).replace("/", ".")
            if dotted.endswith(".__init__"):
                dotted = dotted[: -len(".__init__")]
            if dotted.endswith("__main__"):
                continue
            importlib.import_module(dotted)


#: A cited repository path: one of the tracked top-level directories,
#: not preceded by a longer path, up to the first character a path
#: cannot hold.
CITED_PATH = re.compile(
    r"(?<![\w/.-])"
    r"(?:results_paper|results|benchmarks|bench|scripts|examples|docs)"
    r"/[\w.*/<>-]+"
)
DOCUMENTS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    *sorted((ROOT / "docs").glob("*.md")),
]


def _docstrings(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            text = ast.get_docstring(node)
            if text:
                yield text


def _cited_path_exists(cited: str) -> bool:
    if "<" in cited:  # a placeholder such as results/BENCH_<n>.json
        return True
    if "*" in cited:
        return bool(glob.glob(str(ROOT / cited)))
    # ``:doc:`` references name a document without its suffix.
    return (ROOT / cited).exists() or (ROOT / (cited + ".md")).exists()


class TestCitedPaths:
    def test_every_cited_repository_path_exists(self):
        """A table, script or document named in the docs or a docstring
        is there to be opened — a deletion has to take its citations
        with it."""
        sources = [
            (path, [path.read_text(encoding="utf-8")]) for path in DOCUMENTS
        ]
        sources += [(path, _docstrings(path)) for path in MODULES]
        missing = sorted(
            {
                f"{path.relative_to(ROOT)}: {cited}"
                for path, texts in sources
                for text in texts
                for match in CITED_PATH.findall(text)
                for cited in [match.rstrip(".,:;")]
                if not _cited_path_exists(cited)
            }
        )
        assert not missing, "cited paths that do not exist:\n" + "\n".join(missing)
