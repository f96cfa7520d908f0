"""The declared runtime dependencies are exactly the third-party imports of the
package, each module uses every name it imports, only kernel.py reads the
layout of a kernel's profiles or builds a kernel or intensity from them,
only schmidt._mode_count reads the rule that decides which Schmidt modes are
kept, the decomposition reads its kernel through one product, every
exported table goes through one chunk loop and one re/im rule, the
resolved pump's rings and comb are read as it states them, every
caveat leaves the model as a Python warning that only cli.py collects, and
no module names numpy.random."""

import ast
import os
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "spdc_modes")
# import name -> distribution name, where the two differ
DISTRIBUTIONS = {"yaml": "PyYAML"}


def canonical(name):
    return re.sub(r"[-_.]+", "-", name).lower()


def module_trees():
    """(file name, syntax tree) of each module of the package."""
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
                yield filename, ast.parse(fh.read(), filename)


def imported_distributions():
    names = set()
    for _filename, tree in module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    third_party = names - set(sys.stdlib_module_names) - {"__future__", "spdc_modes"}
    return {canonical(DISTRIBUTIONS.get(name, name)) for name in third_party}


def test_declared_dependencies_are_the_third_party_imports():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {canonical(re.match(r"[A-Za-z0-9._-]+", spec).group(0)) for spec in declared}
    assert names == imported_distributions()


def test_every_imported_name_is_used():
    # a name imported only to be forwarded, or left behind by a removal, is dead
    # (a quoted annotation does not count; the modules import annotations from __future__)
    unused = []
    for filename, tree in module_trees():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{filename}: {bound}")
    assert unused == []


# the profiles of a kernel or intensity, and the functions that index them
PROFILE_ATTRIBUTES = {"at_sums", "at_differences"}
PROFILE_FUNCTIONS = {"diagonal_sums", "_windows"}


def test_only_the_kernel_module_reads_the_profile_layout():
    # F[i, j] = P[i + j] M[i - j + n - 1] is spelled out in kernel.py alone, so
    # a change to the profile pair edits one module; the others go through
    # the kernel's methods
    readers = []
    for filename, tree in module_trees():
        if filename == "kernel.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in PROFILE_ATTRIBUTES | PROFILE_FUNCTIONS:
                readers.append(f"{filename}:{getattr(node, 'lineno', '')}: {name}")
    assert readers == []


# the constructors of a kernel or intensity from a profile pair
PROFILE_CONSTRUCTORS = {"ProfilePair", "TpaKernel", "JointIntensity"}


def test_only_the_kernel_module_builds_kernels_and_intensities():
    # a kernel comes from a kernel.py builder, and an intensity from a kernel's
    # .intensity, an intensity's .swapped or JointIntensity.averaged, so every
    # intensity a command reads is normalized the one way the kernel is
    builds = []
    for filename, tree in module_trees():
        if filename == "kernel.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "from_profiles":
                builds.append(f"{filename}:{node.lineno}: from_profiles")
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in PROFILE_CONSTRUCTORS:
                    builds.append(f"{filename}:{node.lineno}: {name}(...)")
    assert builds == []


# the constants of the truncation rule: weight target and mode cap
TRUNCATION_CONSTANTS = {"ENERGY", "MAX_MODES"}


def reads(tree, names):
    """(innermost enclosing def or class, name) of each read or import of ``names``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                name = child.id
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                name = child.attr
            elif isinstance(child, ast.alias):
                name = child.name
            else:
                name = None
            if name in names:
                found.add((scope, name))
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                      ast.ClassDef)) else scope)
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_only_the_mode_count_reads_the_truncation_rule():
    # which modes a decomposition keeps is one rule in one function, so the
    # sketch, the decomposition and any later reader cannot cut differently;
    # the cluster rule reads the weight the truncation drops, 1 - ENERGY, as
    # the gap a rotation within a cluster may cost
    readers = set()
    for filename, tree in module_trees():
        readers |= {(filename, scope, name) for scope, name in reads(tree, TRUNCATION_CONSTANTS)}
    assert readers == {("schmidt.py", "_mode_count", name) for name in TRUNCATION_CONSTANTS} | {
        ("schmidt.py", "_localise_degenerate", "ENERGY")}


# what the decomposition reads of its kernel: one product, of the kernel and of
# its swap (the adjoint), and the kernel's plain properties
SCHMIDT_KERNEL_ATTRIBUTES = {"times", "swapped", "symmetric", "dtype", "norm", "grid_s"}


def test_the_decomposition_reads_its_kernel_through_one_product():
    # a second product path beside times would be a second place where a block
    # of the amplitude is formed and held
    tree = dict(module_trees())["schmidt.py"]
    attributes = {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "kernel"}
    assert "times" in attributes and attributes <= SCHMIDT_KERNEL_ATTRIBUTES


# the names of exports.py that only one function may read: the chunk buffer,
# which only the chunk loop allocates, and the parts and tests of a complex
# value, which only the re/im rule takes
EXPORT_READERS = {"_buffer": "_chunks", "real": "_parts", "imag": "_parts",
                  "iscomplexobj": "_parts"}


def test_every_table_goes_through_one_chunk_loop_and_one_complex_rule():
    # a writer with its own buffer would be a second chunk loop, and one that
    # splits or refuses a complex value by hand a second rule for its columns
    tree = dict(module_trees())["exports.py"]
    readers = reads(tree, set(EXPORT_READERS))
    assert readers == {(scope, name) for name, scope in EXPORT_READERS.items()}


# names of the emission rings; the pump holds its ring choice as the bool both_branches
RING_NAMES = {"+", "both"}


def test_the_resolved_pump_states_its_rings_and_its_comb_once():
    # the rings are one bool and a single peak's spacing is 0, so no reader
    # re-derives either: only kernel.py counts the peaks, and no module tests
    # a value against the name of a ring
    found = []
    for filename, tree in module_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "n_peaks"
                    and isinstance(node.ctx, ast.Load) and filename != "kernel.py"):
                found.append(f"{filename}:{node.lineno}: .n_peaks")
            elif isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Constant) and side.value in RING_NAMES
                    for side in (node.left, *node.comparators)):
                found.append(f"{filename}:{node.lineno}: compared with a ring name")
    assert found == []


# what the package calls of the standard warnings module
WARNINGS_FUNCTIONS = {"warn", "catch_warnings", "simplefilter"}


def test_every_caveat_is_a_warning_that_only_the_cli_collects():
    # a caveat goes out through warnings.warn and main's one catch_warnings
    # collects it, so no object carries a warnings field, no function takes a
    # warnings parameter, and no second place records what was raised
    found = []
    for filename, tree in module_trees():
        module_uses = {id(node.value) for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and node.attr in WARNINGS_FUNCTIONS
                       and isinstance(node.value, ast.Name) and node.value.id == "warnings"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "warnings":
                found.append(f"{filename}:{node.lineno}: .warnings")
            elif (isinstance(node, ast.Name) and node.id == "warnings"
                  and id(node) not in module_uses):
                found.append(f"{filename}:{node.lineno}: warnings")
            elif isinstance(node, (ast.arg, ast.keyword)) and node.arg == "warnings":
                found.append(f"{filename}:{node.lineno}: warnings parameter")
            elif (isinstance(node, ast.Attribute) and node.attr == "catch_warnings"
                  and filename != "cli.py"):
                found.append(f"{filename}:{node.lineno}: catch_warnings")
    assert found == []


def test_no_module_names_numpy_random():
    # numpy loads numpy.random (about 6 MB of resident memory with what it imports)
    # on the first access to np.random, not at import, so a fresh-interpreter
    # import test cannot see it come back; the Schmidt sketch draws from the
    # standard library's stream instead
    found = []
    for filename, tree in module_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "random"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append(f"{filename}:{node.lineno}: {node.value.id}.random")
            elif isinstance(node, ast.Import):
                found += [f"{filename}:{node.lineno}: import {alias.name}"
                          for alias in node.names if alias.name.startswith("numpy.random")]
            elif isinstance(node, ast.ImportFrom) and node.module and (
                    node.module.startswith("numpy.random")
                    or node.module == "numpy" and any(a.name == "random" for a in node.names)):
                found.append(f"{filename}:{node.lineno}: from {node.module} import")
    assert found == []
