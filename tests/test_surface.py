"""The public surface: the exact set of names the package exports, and the
library names deleted because no command, check or README example reached
them. A new export, or one of those names coming back, has to change this
file on purpose. Also pinned: no `assert` statement in the package, since
assertions vanish under `python -O`; failed invariants raise typed errors.
And one reduction modulo Phi_N: the sparse long division only builds Phi_N,
and the schoolbook product is gone, so every product and every fold goes
through the Kronecker kernels of numth. The criteria route names no
CycInt: its checks stay on packed count vectors. CycInt itself is pinned
to what a command, a check or a benchmark span calls, so a ring operator
deleted because only the tests reached it cannot come back unnoticed: the
constructor, the fold from exponent counts, equality, the product of two
CycInts (which the benchmark times by name; an int factor is refused),
as_int, to_json and repr. And the checks return their verdicts at every
prime over 2 as one int, so the wrapper that read a context's own bit and
the per-k state analyze_field shared between contexts are gone. And importing
the command line loads no dataclasses, which would bring inspect and ast
into every start. And the two routes keep their own per-sequence tables:
the ground truth's parity masks and thm1's rho sums are each read by their
own route only, and the ground truth names no factor of Phi_k mod 2. And
the packed count format stays inside numth: ideal_membership takes packed
counts, a depth and their plan, and reads k off the plan; the criteria
name no bias and import no private name of numth, so they add and rotate
plain signed ints; the autocorrelation, which reads its lags off
numth.cyclic_mul, names no bias and imports no private name of numth
either. And GF(p^m) is built on
digit lists: ExtField._raw_mul, which turned codes into digits and back for
every product made before the tables existed, is gone; the power table is
walked through two half tables of packed digits, x alpha as the sum of
x_lo alpha and (p^h x_hi) alpha, with no product of digit lists per
element. And GF(p)[X] irreducibility is by trial division through one
remainder, with no GF(p) gcd. And the sequence type is binary: it holds no
alphabet size, generate_slce takes the field alone, and d-ary terms exist
only where the generate command prints them, so no analysis path has a
d != 2 branch and NotBinary is gone. And a residue field is the tuple of
gamma's powers that build_residue_field returns, for every odd k including
1, so ResidueField and KisOne are gone. The README's Python example runs as
written, and so does every line of its shell example."""

import ast
import importlib
import inspect
import json
import os
import pathlib
import shlex
import subprocess
import sys
import types

import pytest

import slce
from slce import cli

EXPORTS = {
    "AnalysisContext", "Character", "CriterionRecord", "CycInt", "ExtField",
    "LinearComplexityResult", "MultiplicityProfile",
    "SIZE_CAP", "SemiprimitiveParams", "SlceSequence", "autocorrelation",
    "berlekamp_massey", "binom_mod2", "bit_length_h",
    "build_field", "build_residue_field", "cyclotomic_polynomial", "derivative_vanishes_direct", "factor_phi_mod2",
    "gauss_sum_numeric", "generate_slce", "ideal_membership", "index_set",
    "jacobi_sum", "k_sum", "lc_via_gcd", "lemma1_check", "multiplicity_profile",
    "necessary_condition_check", "prop_check", "quadratic_gauss_closed",
    "run_verify", "semiprimitive_gauss_closed", "semiprimitive_params",
    "semiprimitive_predict", "thm1_check", "thm2_check",
    "thm3_check",
}

DELETED = [
    ("cyclo", "CycInt.conj"),
    ("cyclo", "CycInt.embed"),
    ("cyclo", "Character.trivial"),
    ("cyclo", "Character.conj"),
    ("cyclo", "Character.__mul__"),
    ("cyclo", "Character.value"),
    ("cyclo", "CycInt.zero"),
    ("cyclo", "CycInt.from_int"),
    ("cyclo", "CycInt.root"),
    ("cyclo", "CycInt.__add__"),
    ("cyclo", "CycInt.__radd__"),
    ("cyclo", "CycInt.__sub__"),
    ("cyclo", "CycInt.__rsub__"),
    ("cyclo", "CycInt.__neg__"),
    ("cyclo", "CycInt.__rmul__"),
    ("cyclo", "CycInt.is_zero"),
    ("cyclo", "CycInt.__bool__"),
    ("cyclo", "CycInt.to_complex"),
    ("ff", "with_primitive_element"),
    ("ff", "primitive_elements"),
    ("ff", "dlog"),
    ("ff", "ExtField.from_coeffs"),
    ("ff", "RFElement.order"),
    ("ff", "FieldElement"),
    ("ff", "ExtField.coerce_code"),
    ("ff", "ExtField.mul_codes"),
    ("ff", "ExtField.zero"),
    ("ff", "ExtField.one"),
    ("ff", "ExtField.alpha"),
    ("ff", "ExtField.element"),
    ("ff", "ExtField.element_from_int"),
    ("ff", "ExtField.dlog"),
    ("ff", "RFElement"),
    ("ff", "ResidueField.coerce_bits"),
    ("ff", "ResidueField.zero"),
    ("ff", "ResidueField.one"),
    ("ff", "ResidueField.gamma"),
    ("ff", "ResidueField.element"),
    ("ff", "ExtField.one_minus_dlog"),
    ("ff", "ExtField.add_one_code"),
    ("ff", "ExtField._raw_mul"),
    ("ff", "_pp_gcd"),
    ("ff", "ResidueField"),
    ("criteria", "admissible_contexts"),
    ("criteria", "coset_sum"),
    ("criteria", "AnalysisContext.ksum_counts"),
    ("criteria", "_masked_sum"),
    ("criteria", "_rotate"),
    ("criteria", "_at_own_prime"),
    ("criteria", "AnalysisContext._shared"),
    ("criteria", "_cyclic_dft"),
    ("criteria", "_eta_sign_at_minus_one"),
    ("numth", "fold_slots"),
    ("polybin", "poly_gcd"),
    ("polybin", "BinaryPoly.from_coeffs"),
    ("polybin", "BinaryPoly.from_hex"),
    ("polybin", "BinaryPoly.evaluate"),
    ("polybin", "hasse_derivative"),
    ("polybin", "root_multiplicity"),
    ("polybin", "BinaryPoly"),
    ("errors", "BothZero"),
    ("errors", "DivisionByZero"),
    ("errors", "ZeroPolynomial"),
    ("errors", "NotBinary"),
    ("errors", "KisOne"),
    ("seq", "SlceSequence.to_json_str"),
    ("seq", "SlceSequence.to_json"),
    ("seq", "characteristic_poly"),
    ("seq", "sequence_from_json"),
    ("seq", "balance_report"),
]


def test_exports_are_pinned():
    public = {
        name for name in dir(slce)
        if not name.startswith("_") and not isinstance(getattr(slce, name), types.ModuleType)
    }
    assert public == EXPORTS


@pytest.mark.parametrize("module,name", DELETED, ids=[f"{m}.{n}" for m, n in DELETED])
def test_deleted_name_absent(module, name):
    owner = importlib.import_module(f"slce.{module}")
    *path, last = name.split(".")
    for part in path:
        # a name whose owner is deleted too is gone with it; the owner has
        # its own entry
        owner = getattr(owner, part, None)
    assert not hasattr(owner, last)
    assert not hasattr(slce, last)


CYCINT_MEMBERS = {
    "__init__", "conductor", "coeffs", "from_exponent_counts", "_match", "__mul__", "__eq__",
    "__hash__", "as_int", "to_json", "__repr__",
}


def test_sequence_is_binary():
    # the alphabet size lives only where generate prints d-ary terms
    assert "d" not in slce.SlceSequence.__slots__
    assert list(inspect.signature(slce.generate_slce).parameters) == ["field"]


README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_example_runs():
    text = README.read_text()
    examples = text.split("```python\n")[1:]
    assert len(examples) == 1
    exec(examples[0].split("```")[0], {})


def test_readme_shell_example_runs(tmp_path, capsys):
    # every line of the README's block of slce commands, through the command
    # line's main, with --output under tmp_path; the printed values that the
    # comments quote are checked as well
    blocks = [block.split("```")[0] for block in README.read_text().split("```sh\n")[1:]]
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("slce ")]
    assert len(lines) == 10
    printed = {}
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        if "--output" in argv:
            at = argv.index("--output") + 1
            argv[at] = str(tmp_path / argv[at])
        assert cli.main(argv) == 0, line
        printed[" ".join(argv)] = capsys.readouterr().out
    assert printed["generate --p 7 --m 1"] == "001011\n"
    assert json.loads(printed["generate --p 5 --format json"])["terms"] == [1, 1, 0, 0]
    assert (tmp_path / "report.csv").read_text().startswith("q,p,m,k,e,check,")


def test_cycint_members_are_pinned():
    class Slotted:  # what every slotted class defines: module, docstring, slots
        __slots__ = ()

    assert set(vars(slce.CycInt)) - set(vars(Slotted)) == CYCINT_MEMBERS
    # __eq__ is defined, so __hash__ is None; and an int is no CycInt
    assert slce.CycInt.__hash__ is None
    assert (slce.CycInt(3, (5, 0)) == 5) is False
    with pytest.raises(TypeError):
        slce.CycInt(3, (1, 0)) * 5


SOURCES = sorted(pathlib.Path(slce.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_bare_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}"


def mentions(name):
    """(module, top-level definition) of every place in the package that
    defines, imports or reads name."""
    found = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute) and node.attr == name
                        or isinstance(node, ast.alias) and name in (node.name, node.asname)
                        or isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and node.name == name):
                    found.add((path.stem, getattr(top, "name", None)))
    return found


def test_one_fold_modulo_phi():
    assert mentions("_int_divmod") == {
        ("numth", "_int_divmod"), ("numth", "cyclotomic_polynomial")}
    assert mentions("_int_mul") == set()


def test_criteria_name_no_cycint():
    assert {top for module, top in mentions("CycInt") if module == "criteria"} == set()


def test_routes_read_their_own_tables():
    assert mentions("_hasse_masks") == {
        ("criteria", "_hasse_masks"), ("criteria", "derivative_vanishes_direct"),
        ("criteria", "multiplicity_profile")}
    assert mentions("_rho_sums") == {("criteria", "_rho_sums"), ("criteria", "thm1_check")}
    # the import and the context's own prime are the only criteria mentions
    assert {top for module, top in mentions("factor_phi_mod2") if module == "criteria"} == {
        None, "AnalysisContext"}


def test_packed_format_stays_in_numth():
    assert list(inspect.signature(slce.ideal_membership).parameters) == ["x", "c", "plan"]
    for module in ("criteria", "seq"):
        source = (pathlib.Path(slce.__file__).parent / f"{module}.py").read_text()
        assert "bias" not in source, module
        imported = [alias.name for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.ImportFrom) and node.module == "numth"
                    for alias in node.names]
        assert imported and not [name for name in imported if name.startswith("_")], module


def test_cli_import_leaves_dataclasses_unloaded():
    # importing dataclasses pulls in inspect, ast, dis and tokenize, a
    # measurable share of every command's start-up
    code = "import sys, slce.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(slce.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
