import importlib
import pkgutil
from types import ModuleType

import pytest

import groupshare

MODULES = sorted(info.name for info in pkgutil.iter_modules(groupshare.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    module = importlib.import_module(f"groupshare.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
    namespace: dict = {}
    exec(f"from groupshare.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def public_names() -> set[str]:
    """The package's own public names: neither private nor a submodule."""
    return {name for name, value in vars(groupshare).items()
            if not name.startswith("_") and not isinstance(value, ModuleType)}


def test_package_imports_only_exported_names():
    modules = [importlib.import_module(f"groupshare.{name}") for name in MODULES if name != "cli"]
    assert public_names() == set().union(*(module.__all__ for module in modules))
    for module in modules:
        for name in module.__all__:
            assert getattr(groupshare, name) is getattr(module, name), name


# The package's public surface, spelled out so that every change to it shows
# in a diff of this file.
EXPORTED = {
    "Alphabet", "BitColumn", "BreakdownResult", "BudgetExhausted", "CancellationReport",
    "DehnStep", "DehnTrace", "Presentation", "PrimeModulus",
    "SessionConfig", "SharePoint", "T1Intro", "T4Replace", "Transcript",
    "Word", "WordColumn", "break_relators", "check_small_cancellation", "column_to_int",
    "cyclic_permutations", "cyclically_reduce", "deal_nn", "deal_tn", "decode_column",
    "dehn_is_trivial", "encode_column", "expand_word", "export_transcript", "int_to_column",
    "interpolate_at_zero", "is_prime", "lagrange_coefficients", "make_nontrivial_word",
    "make_trivial_word", "parse_presentation", "parse_word", "poly_eval",
    "random_platform_group", "random_polynomial", "random_reduced_word", "recover_secret_nn",
    "recover_share", "replay", "run_secure_linear_combination", "run_secure_sum",
    "serialize_breakdown", "serialize_presentation", "serialize_word", "split_secret",
}


def test_package_exports_exactly_the_listed_names():
    assert len(EXPORTED) == 49
    assert public_names() == EXPORTED
