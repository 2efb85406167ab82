"""Repository hygiene checks (a lightweight, dependency-free linter).

These keep the codebase consistent without external tooling:

* every library module compiles and carries a module docstring;
* the library never prints to stdout (the CLI and reporting layer are the
  only sanctioned exceptions);
* no library module imports the test suite or the benchmarks;
* public modules avoid ``from x import *``;
* every repository path a document or docstring cites exists;
* every API name ``docs/api.md`` tabulates exists;
* every ``repro_*`` metric name the documents cite is registered.
"""

import ast
import glob
import importlib
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


def module_name(path: Path) -> str:
    """The dotted import name of a library module path."""
    dotted = str(path.relative_to(SRC.parent).with_suffix("")).replace("/", ".")
    return dotted[: -len(".__init__")] if dotted.endswith(".__init__") else dotted


#: Importable library modules (``__main__`` runs the CLI on import).
MODULE_NAMES = [
    module_name(path) for path in MODULES if path.name != "__main__.py"
]


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
        for dotted in MODULE_NAMES:
            importlib.import_module(dotted)


#: The prose documents: every path and metric name they cite must exist.
DOCUMENTS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    *sorted((ROOT / "docs").glob("*.md")),
]


def _documented_api_names(path: Path):
    """The capitalised or ``repro.``-qualified dotted names opening the
    code spans of the first column of every table in ``path``."""
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            continue
        for span in re.findall(r"`([^`]+)`", line.split("|")[1]):
            name = re.match(r"[A-Za-z_][\w.]*", span)
            if name is None:
                continue
            dotted = name.group().rstrip(".")
            if dotted[0].isupper() or dotted.startswith("repro."):
                yield dotted


def _has_path(target, attributes) -> bool:
    for attribute in attributes:
        if not hasattr(target, attribute):
            return False
        target = getattr(target, attribute)
    return True


def _resolves(dotted: str, modules) -> bool:
    """Whether ``dotted`` names something in ``repro``: a qualified name
    through its longest importable module prefix, a bare one as an
    attribute path of any library module."""
    parts = dotted.split(".")
    if parts[0] != "repro":
        return any(_has_path(module, parts) for module in modules)
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return _has_path(module, parts[cut:])
    return False


class TestDocumentedApi:
    def test_every_documented_api_name_exists(self):
        """A class or qualified name cited in the first column of an API
        table is there to be called — a removal has to take its row
        with it."""
        modules = [importlib.import_module(dotted) for dotted in MODULE_NAMES]
        names = sorted(set(_documented_api_names(ROOT / "docs" / "api.md")))
        assert len(names) > 50, "the API tables were not found"
        missing = [name for name in names if not _resolves(name, modules)]
        assert not missing, f"docs/api.md cites names that do not exist: {missing}"


#: A cited metric name: the ``repro_`` prefix and lower-case words.
METRIC_NAME = re.compile(r"\brepro_[a-z_]+")


def _string_literals(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


class TestDocumentedMetrics:
    def test_every_documented_metric_name_exists(self):
        """A metric the docs tell an operator to scrape is registered
        under that name somewhere in the library — a removed series has
        to take its mentions with it."""
        cited = {
            name
            for path in DOCUMENTS
            for name in METRIC_NAME.findall(path.read_text(encoding="utf-8"))
        }
        assert len(cited) > 15, "the metric names were not found"
        literals = {text for path in MODULES for text in _string_literals(path)}
        missing = sorted(cited - literals)
        assert not missing, f"documented metrics that do not exist: {missing}"


#: A cited repository path: one of the tracked top-level directories,
#: not preceded by a longer path, up to the first character a path
#: cannot hold.
CITED_PATH = re.compile(
    r"(?<![\w/.-])"
    r"(?:results_paper|results|benchmarks|bench|scripts|examples|docs)"
    r"/[\w.*/<>-]+"
)


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
