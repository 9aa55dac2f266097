"""Every integer parameter of the public API, found by inspect.signature: a
bool, a float or a string in its place raises a ValueError naming it, and
the error for a bad value names the callable.  So does a wrong-typed value
for every bool, Subset, SetFamily and str parameter."""

import inspect
import sys

import pytest

import kktools

# One valid call, by keyword, per public callable with an `int` or
# `int | None` parameter; each case replaces one of those arguments.
BASE_CALLS = {
    "binom": {"n": 5, "k": 2},
    "d_value": {"n": 4, "r": 2},
    "hockey_stick": {"r": 2, "k": 3},
    "verify_d_identities": {"n_max": 3, "r_max": 2},
    "level_masks": {"n": 4, "k": 2},
    "first_segment": {"n": 4, "k": 2, "m": 3},
    "last_segment": {"n": 4, "k": 2, "m": 3},
    "segment_after": {"n": 4, "k": 2, "r": 1, "m": 2},
    "unrank": {"m": 3, "n": 4, "k": 2},
    "parse_subset": {"text": "13", "ground_n": 4},
    "Subset": {"elements": (1, 3), "ground_n": 4},
    "Subset.from_mask": {"mask": 5, "ground_n": 4},
    "SetFamily": {"members": (), "ground_n": 3},
    "SetFamily.of": {"element_sets": [[1], [2, 3]], "ground_n": 3},
    "SetFamily.from_masks": {"masks": [1, 6], "ground_n": 3},
    "CascadeRep": {"value_m": 3, "level_r": 2},
    "cascade_rep": {"m": 5, "r": 2},
    "kk_shadow_min": {"m": 5, "r": 2},
    "verify_kkt": {"n_max": 2, "samples": 3, "seed": 1, "sample_n_max": 3},
    "verify_lieby_duality": {"n": 3},
    "verify_clements_minimality": {"n": 4, "k": 2},
    "kappa": {"r": 2, "m": 5},
    "kappa_star": {"r": 2, "m": 5},
    "negativity_threshold": {"r": 2},
    "KappaTable": {"level_r": 2, "upper_m": 2, "kappa": [0, 1, 0]},
    "KappaTable.build": {"r": 2, "upper_m": 5},
    "verify_prop22": {"r": 2, "m_max": 8},
    "verify_thm23": {"r": 2, "m_max": 8},
    "verify_prop24": {"n": 4, "a_only": 1, "k_only": 2},
    "verify_lemma38": {"n": 4},
    "check_conjecture51": {"n": 4},
    "verify_conjecture51": {"n": 4},
    "theorem25_bound": {"n": 4, "k": 2},
    "construct_extremal": {"n": 4, "k": 2},
    "enumerate_antichains": {"n": 3},
    "brute_force_max": {"n": 3, "k": 1},
    "verify_thm25_brute": {"n": 4, "k": 1},
    "verify_thm26_structure": {"n": 4, "k": 1},
    "verify_extremal_constructions": {"n": 4},
    "sperner_max_check": {"n": 3},
    "run_all": {"n_max": 2, "r_max": 1},
}

# Records the library fills in and returns: their fields are results, not
# arguments, and are not checked.
RESULT_RECORDS = {"DisjointPairReport", "ExtremalConstruction", "VerificationReport"}

# Where the error names a parameter by another word.  Subset keeps its
# "ground set size" message, which the SetFamily oracle tests compare.
NAMED_AS = {"a_only": "a", "k_only": "k", "ground_n": "ground_n|ground set size"}

BAD_VALUES = (True, 2.5, "3")


def public_callables():
    """(name, callable) for every name in kktools.__all__ apart from the
    result records, and for the public classmethods of its classes."""
    for name in kktools.__all__:
        obj = getattr(kktools, name)
        if name in RESULT_RECORDS:
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if isinstance(raw, classmethod) and not attr.startswith("_"):
                    yield f"{name}.{attr}", getattr(obj, attr)


CASES = [(name, call, param.name)
         for name, call in public_callables()
         for param in inspect.signature(call).parameters.values()
         if param.annotation in ("int", "int | None")]


def test_every_integer_parameter_has_a_base_call():
    # a new public function with an int parameter must join BASE_CALLS
    missing = [f"{name}({param})" for name, _, param in CASES
               if param not in BASE_CALLS.get(name, {})]
    assert missing == []
    assert sorted(BASE_CALLS) == sorted({name for name, _, _ in CASES})


@pytest.mark.parametrize("name", sorted(BASE_CALLS))
def test_base_call_is_valid(name):
    call = dict((n, c) for n, c, _ in CASES)[name]
    call(**BASE_CALLS[name])


@pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("name, call, param", CASES,
                         ids=[f"{name}-{param}" for name, _, param in CASES])
def test_a_bad_integer_argument_is_named(name, call, param, bad):
    kwargs = dict(BASE_CALLS[name], **{param: bad})
    label = NAMED_AS.get(param, param)
    with pytest.raises(ValueError,
                       match=rf"\b(?:{label}) must be (?:an|a positive) integer"):
        call(**kwargs)


# Where an integer argument's error starts with another word than the
# callable's name: the documented messages of the value types.
OTHER_PREFIX = {
    # one ground-set message for Subset, SetFamily and parse_subset, which
    # the SetFamily oracle tests compare
    **{(name, "ground_n"): "ground set size must be"
       for name in ("Subset", "Subset.from_mask", "SetFamily.of",
                    "SetFamily.from_masks", "parse_subset")},
    # the builder checks its arguments under the class's name
    ("KappaTable.build", "r"): "KappaTable:",
    ("KappaTable.build", "upper_m"): "KappaTable:",
    # the mask is read by squashed.elements_of, which names itself
    ("Subset.from_mask", "mask"): "elements_of:",
}


def test_other_prefixes_name_real_parameters():
    assert set(OTHER_PREFIX) <= {(name, param) for name, _, param in CASES}


@pytest.mark.parametrize("name, call, param", CASES,
                         ids=[f"{name}-{param}" for name, _, param in CASES])
def test_an_integer_argument_error_names_the_callable(name, call, param):
    # not a helper it calls: brute_force_max(-5, 0) used to raise
    # "enumerate_antichains: ...", and run_all(0) "verify_d_identities: ..."
    prefix = OTHER_PREFIX.get((name, param), f"{name}:")
    for bad in BAD_VALUES + (0, -5):
        try:
            call(**dict(BASE_CALLS[name], **{param: bad}))
        except ValueError as exc:
            assert str(exc).startswith(prefix), (bad, str(exc))


# The bool flags, found by annotation, take only True and False: "no" used
# to run verify_thm25_brute's exact sweep and report "exact": "no".
BOOL_CASES = [(name, call, param.name)
              for name, call in public_callables()
              for param in inspect.signature(call).parameters.values()
              if param.annotation == "bool"]


def test_every_bool_parameter_has_a_valid_base_call():
    assert BOOL_CASES
    for name, call, param in BOOL_CASES:
        call(**dict(BASE_CALLS[name], **{param: True}))


@pytest.mark.parametrize("bad", (1, "no", None), ids=repr)
@pytest.mark.parametrize("name, call, param", BOOL_CASES,
                         ids=[f"{name}-{param}" for name, _, param in BOOL_CASES])
def test_a_non_bool_flag_is_named(name, call, param, bad):
    with pytest.raises(ValueError) as info:
        call(**dict(BASE_CALLS[name], **{param: bad}))
    assert str(info.value) == f"{name}: {param} must be a bool, got {bad!r}"


# The same rule for the Subset, SetFamily and str parameters: one valid call
# per public callable that has one, each case replacing one of them.
SUBSET = kktools.Subset((1, 3), 4)
FAMILY = kktools.SetFamily.of([[1], [2, 3]], 4)
OBJECT_BASE_CALLS = {
    "compare_squashed": {"a": SUBSET, "b": kktools.Subset((2, 3), 4)},
    "disjoint_pairs": {"a": FAMILY, "b": FAMILY},
    "format_subset": {"s": SUBSET},
    "is_antichain": {"fam": FAMILY},
    "new_shade": {"fam": kktools.SetFamily.of([[1, 2]], 4)},
    "new_shadow": {"fam": kktools.SetFamily.of([[1, 2]], 4)},
    "parse_subset": {"text": "13", "ground_n": 4},
    "rank": {"s": SUBSET},
    "shade": {"fam": kktools.SetFamily.of([[1, 2]], 4)},
    "shadow": {"fam": kktools.SetFamily.of([[1, 2]], 4)},
    "sperner_down": {"fam": FAMILY},
    "sperner_up": {"fam": FAMILY},
}

OBJECT_CASES = [(name, call, param.name, param.annotation)
                for name, call in public_callables()
                for param in inspect.signature(call).parameters.values()
                if param.annotation in ("Subset", "SetFamily", "str")]

OBJECT_BAD_VALUES = (None, 3, [1])


def test_every_object_parameter_has_a_base_call():
    missing = [f"{name}({param})" for name, _, param, _ in OBJECT_CASES
               if param not in OBJECT_BASE_CALLS.get(name, {})]
    assert missing == []
    assert sorted(OBJECT_BASE_CALLS) == sorted({name for name, *_ in OBJECT_CASES})


@pytest.mark.parametrize("name", sorted(OBJECT_BASE_CALLS))
def test_object_base_call_is_valid(name):
    call = dict((n, c) for n, c, *_ in OBJECT_CASES)[name]
    call(**OBJECT_BASE_CALLS[name])


@pytest.mark.parametrize("bad", OBJECT_BAD_VALUES, ids=repr)
@pytest.mark.parametrize("name, call, param, kind", OBJECT_CASES,
                         ids=[f"{name}-{param}" for name, _, param, _ in OBJECT_CASES])
def test_a_wrong_typed_object_argument_is_named(name, call, param, kind, bad):
    # these used to raise AttributeError or TypeError from inside the call
    kwargs = dict(OBJECT_BASE_CALLS[name], **{param: bad})
    with pytest.raises(ValueError) as info:
        call(**kwargs)
    assert str(info.value) == f"{name}: {param} must be a {kind}, got {bad!r}"


# Value errors past the type checks name the callable too.  Subset's range
# message and SetFamily.uniform_size's stay as they are: the SetFamily
# oracle tests compare them.
VALUE_ERRORS = [
    ("disjoint_pairs",
     {"a": kktools.SetFamily.from_masks([1], 2), "b": kktools.SetFamily.from_masks([1], 3)},
     "disjoint_pairs: families must share a ground set, got 2 and 3"),
    ("compare_squashed", {"a": SUBSET, "b": kktools.Subset((2,), 4)},
     "compare_squashed: squashed order compares sets of equal size, got 2 and 1"),
    ("parse_subset", {"text": "1a", "ground_n": 4},
     "parse_subset: cannot parse subset text '1a'"),
    ("parse_subset", {"text": "{1,x}", "ground_n": 4},
     "parse_subset: cannot parse subset text '{1,x}'"),
    ("parse_subset", {"text": "{1,2", "ground_n": 4},
     "parse_subset: unbalanced braces in subset text '{1,2'"),
    # refused before any level is built
    *(("construct_extremal", {"n": n, "k": 0},
       f"construct_extremal: need even 4 <= n <= 22, got {n}") for n in (24, 26, 200)),
    *(("verify_extremal_constructions", {"n": n},
       f"verify_extremal_constructions: need even 4 <= n <= 22, got {n}")
      for n in (24, 200)),
    # past math.comb's reach, min(k, n - k) > sys.maxsize: no OverflowError
    ("binom", {"n": 2**64, "k": 2**63},
     f"binom: need min(k, n - k) <= {sys.maxsize}, got n = {2**64}, k = {2**63}"),
    ("theorem25_bound", {"n": 2**64, "k": 0},
     f"theorem25_bound: need even 4 <= n <= {2 * sys.maxsize}, got {2**64}"),
]


@pytest.mark.parametrize("name, kwargs, message", VALUE_ERRORS,
                         ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(VALUE_ERRORS)])
def test_a_bad_value_error_names_the_callable(name, kwargs, message):
    with pytest.raises(ValueError) as info:
        getattr(kktools, name)(**kwargs)
    assert str(info.value) == message
