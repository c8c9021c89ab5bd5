"""Source hygiene in lcprof: no unused imports, no dead private helpers,
no public name that only the tests use, no core built or stepped outside
engine.py, no Kronecker slot sized outside poly.py, no guard constant
read outside its module, one Poly constructor and Seq._canonical read by
its three readers alone, CI checks that stay runnable code, and no tool
that nothing runs.

The stdlib ast module reads the sources; the CI checks file is also
collected by pytest in a child process.  The package __init__ is exempt:
its imports are the public re-exports.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lcprof"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _loaded_names(tree) -> set[str]:
    """The bare names the tree reads (import statements bind, not read)."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _uses(tree) -> set[str]:
    """Every name the tree reads: bare names, attributes and from-imports."""
    out = _loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _imported(tree) -> dict[str, int]:
    """Names bound by the module's imports, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _private_defs(tree) -> dict[str, int]:
    """Module-level private names (not dunders) with their line numbers."""
    return {name: line for name, line in _defs(tree).items()
            if name.startswith("_") and not name.startswith("__")}


def _defs(tree) -> dict[str, int]:
    """Module-level names the module defines, with their line numbers."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            out[name] = node.lineno
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _loaded_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.name} imports but never uses: {unused}"


def test_every_private_module_name_is_referenced():
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]
    used = set().union(*(_uses(_tree(p)) for p in sources))
    dead = sorted(f"{path.name}:{line} {name}"
                  for path in MODULES
                  for name, line in _private_defs(_tree(path)).items()
                  if name not in used)
    assert not dead, f"private names that nothing references: {dead}"


def _public_defs(tree):
    """(name, qualified name, line) of each public module-level function
    and class, and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
            yield node.name, node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                yield from ((m.name, f"{node.name}.{m.name}", m.lineno)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef) and m.name[0] != "_")


def test_every_public_name_is_called_or_documented():
    # the surface is what the package calls, README documents and the
    # acceptance tests read; a name that only the other tests use is a
    # test helper, and lives under tests/ (matched by bare name, as
    # _uses reads attributes)
    readme = (ROOT / "README.md").read_text()
    spans = "\n".join(span for _, span in re.findall(r"(`+)(.+?)\1", readme, re.S))
    known = (set().union(*(_uses(_tree(p)) for p in MODULES))
             | set(re.findall(r"\w+", spans))
             | _uses(_tree(ROOT / "tests" / "test_acceptance.py")))
    unused = sorted(f"{path.name}:{line} {qualified}"
                    for path in MODULES
                    for name, qualified, line in _public_defs(_tree(path))
                    if name not in known)
    assert not unused, f"public names that only the tests use: {unused}"


# Only engine.py builds or steps a core: other modules get one from
# engine._make_core and step it through the engine's drivers (_run,
# _each_step, _walk_prefixes).  deltas_to_sequence is the one exception:
# its two trial steps a term choose that term.
CORE_CLASSES = {"_PackedCore", "_GenericCore", "_TernaryCore"}
STEP_ALLOWED = {("analysis.py", "deltas_to_sequence")}
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def _step_reads(tree):
    """(top-level definition, line) of every read of a .step attribute."""
    return [(getattr(top, "name", None), node.lineno)
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr == "step"]


def test_only_the_engine_names_a_core_class():
    named = {path.name: sorted(CORE_CLASSES & _uses(_tree(path)))
             for path in ALL_MODULES if path.name != "engine.py"}
    named = {name: classes for name, classes in named.items() if classes}
    assert not named, f"core classes named outside engine.py: {named}"


def test_only_poly_names_the_slot_rule():
    # product_slice sizes its own slots; a caller that passed a width
    # could pass one too narrow for its product's sums
    named = sorted(path.name for path in ALL_MODULES
                   if path.name != "poly.py" and "_slot_bytes" in _uses(_tree(path)))
    assert not named, f"_slot_bytes named outside poly.py: {named}"


def test_only_the_engine_steps_a_core():
    stray = sorted(f"{path.name}:{line} in {where}"
                   for path in ALL_MODULES if path.name != "engine.py"
                   for where, line in _step_reads(_tree(path))
                   if (path.name, where) not in STEP_ALLOWED)
    assert not stray, f".step read outside the engine's drivers: {stray}"


def test_the_prefix_walk_is_defined_in_the_engine_alone():
    homes = [path.name for path in ALL_MODULES
             if "_walk_prefixes" in _private_defs(_tree(path))]
    assert homes == ["engine.py"]


def test_only_its_own_module_reads_a_guard_constant():
    # a size guard's rule is one check function in the module that owns
    # its constant; the work it bounds and every pre-check call that, so
    # no second module knows the rule (tests may patch any guard)
    stray = sorted(f"{path.name}: {name}" for path in ALL_MODULES
                   for name in _uses(_tree(path))
                   if name.endswith("_GUARD") and name not in _defs(_tree(path)))
    assert not stray, f"guard constants read outside their module: {stray}"


# Poly has one constructor, which normalizes.  Seq._canonical skips that
# only where checking would cost a workload: the parser, which holds each
# term in [0, p) as it reads it, and two verify checks over terms that the
# engine consumed; poly.py's own Seq.prefix slices a canonical tuple.
CANONICAL_READERS = {("cli.py", "parse_sequence"), ("verify.py", "_oracle_check"),
                     ("verify.py", "_wm_check")}


def _canonical_reads(tree):
    """(top-level definition, owner, line) of every read of ._canonical."""
    return [(getattr(top, "name", None), getattr(node.value, "id", None), node.lineno)
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr == "_canonical"]


def test_poly_keeps_one_constructor():
    poly = _tree(PACKAGE / "poly.py")
    (cls,) = [node for node in poly.body
              if isinstance(node, ast.ClassDef) and node.name == "Poly"]
    assert "_canonical" not in {getattr(node, "name", None) for node in cls.body}
    stray = sorted(f"{path.name}:{line} {owner}._canonical in {where}"
                   for path in ALL_MODULES
                   for where, owner, line in _canonical_reads(_tree(path))
                   if owner != "Seq" or path.name != "poly.py"
                   and (path.name, where) not in CANONICAL_READERS)
    assert not stray, f"unchecked constructors read outside their readers: {stray}"


# tools/ci_checks.py holds the checks too slow for tier-1, one case for
# each workflow step it replaced, or for each command of a step that ran
# several; the workflow runs the file and holds no inline code of its own
CI_CHECKS = ROOT / "tools" / "ci_checks.py"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
CI_CASES = """
test_gamma_at_the_guard_under_40_mib
test_plcp_enum_streams_under_64_mib[json]
test_plcp_enum_streams_under_64_mib[text]
test_profile_json_at_2_18_terms_under_36_mib
test_minpoly_json_at_2_18_terms_under_30_mib
test_plcp_check_at_2_18_terms_under_64_mib[json]
test_plcp_check_at_2_18_terms_under_64_mib[text]
test_rueppel_at_the_guard_under_96_mib[json]
test_rueppel_at_the_guard_under_96_mib[text]
test_size_guard_exits_4_at_10_18[plcp-enum]
test_size_guard_exits_4_at_10_18[wang-massey]
test_size_guard_exits_4_at_10_18[bezout]
test_size_guard_exits_4_at_10_18[rueppel]
test_benchmark_self_test
test_workload_against_the_benchmark_oracle[p65521-json]
test_workload_against_the_benchmark_oracle[f3-table]
test_workload_against_the_benchmark_oracle[f2-json]
test_workload_against_the_benchmark_oracle[verify-all]
test_traced_run_of_every_workload
test_profile_table_against_the_json[p2^31-1]
test_profile_table_against_the_json[p2]
test_profile_table_against_the_json[p3]
test_profile_table_against_the_json[p5]
test_recursive_block_against_the_per_step_core_at_8192_terms
""".split()


def test_the_ci_checks_stay_runnable():
    # 3.10 is the oldest Python in the workflow's matrix
    ast.parse(CI_CHECKS.read_text(), filename=str(CI_CHECKS), feature_version=(3, 10))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", str(CI_CHECKS)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = {line.rpartition("::")[2] for line in proc.stdout.splitlines()}
    missing = [case for case in CI_CASES if case not in collected]
    assert not missing, f"cases missing from {CI_CHECKS.name}: {missing}"
    workflow = WORKFLOW.read_text()
    assert "<<" not in workflow and "python -c" not in workflow
    assert "tools/ci_checks.py" in workflow


def test_every_tool_is_run_by_the_workflow_or_the_readme():
    # a script that no CI step and no documented command names rots unrun
    named = WORKFLOW.read_text() + (ROOT / "README.md").read_text()
    tools = sorted(path.relative_to(ROOT).as_posix()
                   for path in (ROOT / "tools").rglob("*")
                   if path.is_file() and "__pycache__" not in path.parts)
    assert tools
    unnamed = [tool for tool in tools if tool not in named]
    assert not unnamed, f"tools that neither tier1.yml nor README names: {unnamed}"
