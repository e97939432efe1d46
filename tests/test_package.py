"""The package namespace: each exported name loads its layer on first use."""

import importlib
import os
import subprocess
import sys
import textwrap

import pytest

import quadunitary

# the names the package exported when it imported every layer eagerly
EXPORTED = [
    "CheckpointError", "DomainError", "FactorEntry", "Factorization", "K", "PrimeClass", "QInt",
    "RadicalValue", "Ring", "SearchConfig", "SearchRecord", "SigEntry", "Signature",
    "TheoremReport", "ZetaCheck", "arg_less", "canonical_associate", "check_thm_2_2",
    "check_thm_2_3", "check_thm_2_4", "check_thm_2_5", "check_thm_2_6", "check_zeta",
    "classify", "coprime", "delta_star", "delta_star_oracle", "exact_div", "factor_element",
    "factor_int", "format_element", "g_map", "i_star", "in_sector", "is_associate",
    "iter_sector_elements", "parse_element", "pretty_element", "prime_above", "rho", "ring",
    "run_check", "run_search", "search_signatures", "sigma_star_int", "signature_hits_multi",
    "unitary_divisors", "xi", "zeta_bound_check",
]
SUBMODULES = ["factoring", "primes", "radicals", "rings", "search", "theorems", "udf"]


def run_fresh(code: str) -> str:
    """Run code in a new interpreter that imports this checkout's package; return its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadunitary.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str) -> list:
    """The quadunitary submodules a new interpreter holds after running code."""
    tail = "import sys\nprint(sorted(m for m in sys.modules if m.startswith('quadunitary.')))\n"
    return eval(run_fresh(textwrap.dedent(code) + tail))


def test_import_loads_no_submodule():
    assert loaded_after("import quadunitary\n") == []


def test_an_elements_search_loads_neither_theorems_nor_cli():
    loaded = loaded_after("""
        from fractions import Fraction
        from quadunitary import SearchConfig, ring, run_search
        records = run_search(SearchConfig(ring(-1), 2, Fraction(2), 2000, mode="elements"))
        assert [r.norm for r in records if r.is_hit], records
    """)
    assert "quadunitary.search" in loaded
    assert "quadunitary.theorems" not in loaded and "quadunitary.cli" not in loaded


def test_the_cli_and_an_elements_search_import_neither_dataclasses_nor_inspect():
    # compared with the modules present at start, so a site hook that loads them does not count
    out = run_fresh("""
        import sys
        before = set(sys.modules)
        import quadunitary.cli
        from fractions import Fraction
        from quadunitary import SearchConfig, ring, run_search
        assert run_search(SearchConfig(ring(-1), 2, Fraction(2), 2000, mode="elements"))
        print(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)))
    """)
    assert out == "[]\n"


def test_all_is_the_exported_list():
    assert quadunitary.__all__ == EXPORTED


def test_each_name_is_its_home_modules_object():
    for home, names in quadunitary._EXPORTS.items():
        module = importlib.import_module(f"quadunitary.{home}")
        for name in names:
            value = getattr(quadunitary, name)
            assert value is getattr(module, name), name
            assert getattr(value, "__module__", module.__name__) == module.__name__, name
    for home in SUBMODULES:
        assert getattr(quadunitary, home) is sys.modules[f"quadunitary.{home}"]
    assert sorted(quadunitary._EXPORTS) == SUBMODULES
    assert set(EXPORTED) <= set(dir(quadunitary))
    assert set(SUBMODULES) <= set(dir(quadunitary))


def test_star_import_binds_every_name():
    out = run_fresh("""
        import quadunitary
        from quadunitary import *
        print(sorted(n for n in quadunitary.__all__ if n in globals()))
    """)
    assert eval(out) == EXPORTED


def test_a_submodule_resolves_through_the_package():
    out = run_fresh("""
        import quadunitary
        print(quadunitary.search.run_search.__module__, quadunitary.udf.i_star.__name__)
    """)
    assert out == "quadunitary.search i_star\n"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'quadunitary'.*'no_such_name'"):
        quadunitary.no_such_name


def test_a_function_replaced_in_its_home_module_is_what_the_package_returns():
    out = run_fresh("""
        import quadunitary.udf as udf
        import quadunitary.search as search

        def traced(*args):
            return "traced"

        udf.i_star = traced
        search.run_search = traced
        import quadunitary
        from quadunitary import run_search
        assert quadunitary.i_star is traced and run_search is traced
        print(quadunitary.i_star(None, 2), run_search(None))
    """)
    assert out == "traced traced\n"
