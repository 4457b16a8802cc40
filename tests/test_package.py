"""The package surface of ``import mpst`` and the README's library example."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import mpst

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")

# Every name the package root exports, by the module that defines it.
EXPORTS = {
    "analysis": [
        "BoundednessVerdict", "LivenessVerdict", "bounded", "depth", "excluded_deadlock_free",
        "excluded_lock_free", "plays_global", "top_partner",
    ],
    "frontend": ["ParseError", "SpecFile", "format_global", "format_process", "format_session", "parse"],
    "inference": [
        "BudgetExhausted", "InferenceOutcome", "NoSolutionWithinBudget", "SearchBudget", "Substitution",
        "enumerate_solutions", "infer", "infer_minimal", "render_outcome", "solutions", "solve_pset_equations",
        "solve_type_equations",
    ],
    "semantics": [
        "CommLabel", "ExploreConfig", "StateGraph", "StateLimitExceeded", "Trace", "explore", "global_successor",
        "global_transitions", "session_transitions",
    ],
    "terms": [
        "GlobalGraph", "ProcessGraph", "Session", "build_global_graph", "build_process_graph", "global_system",
        "minimize", "minimize_global", "normalize_session", "participants", "process_system", "session_of",
    ],
    "typecheck": ["Derivation", "Judgment", "Rejection", "accepts", "typecheck"],
}


class TestSurface:
    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_every_export_is_the_submodule_attribute(self, module):
        source = importlib.import_module(f"mpst.{module}")
        for name in EXPORTS[module]:
            assert getattr(mpst, name) is getattr(source, name), name

    def test_typecheck_is_the_function(self):
        # importing mpst.typecheck binds the submodule; the export rebinds the name
        assert mpst.typecheck is importlib.import_module("mpst.typecheck").typecheck

    def test_dir_and_star_import_list_every_export(self):
        exported = {name for names in EXPORTS.values() for name in names}
        assert exported <= set(dir(mpst))
        assert set(mpst.__all__) == exported
        scope = {}
        exec("from mpst import *", scope)
        assert scope["infer_minimal"] is mpst.infer_minimal

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="ready_pairs"):
            mpst.ready_pairs


class TestReadme:
    def test_the_library_block_prints_what_its_comment_says(self, capsys, monkeypatch):
        block = re.search(r"## Library in five lines\n\n```python\n(.*?)```", README, re.S).group(1)
        comment = next(line for line in block.splitlines() if line.startswith("print(") and "#" in line)
        monkeypatch.chdir(ROOT)
        exec(block, {})
        first = capsys.readouterr().out.splitlines()[0]
        assert first == comment.split("#", 1)[1].strip()

    def test_every_dotted_name_resolves(self):
        for info in pkgutil.iter_modules(mpst.__path__):
            importlib.import_module(f"mpst.{info.name}")
        names = set(re.findall(r"`(mpst(?:\.\w+)+)`", README))
        assert "mpst.cli.run" in names
        for dotted in names:
            value = mpst
            for part in dotted.split(".")[1:]:
                assert hasattr(value, part), dotted
                value = getattr(value, part)
