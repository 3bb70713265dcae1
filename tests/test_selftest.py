"""The invariant battery itself: coverage, determinism, result rendering."""

from expweyl.selftest import CheckResult, check_names, run_selftest


def test_battery_green_at_default_seed():
    results = run_selftest(0)
    assert all(r.ok for r in results), [r.as_text() for r in results if not r.ok]


def test_one_check_per_module_area():
    names = check_names()
    assert len(names) == len(set(names))
    # every module's invariants have at least one named check
    prefixes = (
        "scalar_field",
        "lattice_",
        "defining_relations",
        "normal_form",
        "action_",
        "order_",
        "weyl_symbol",
        "witt_",
        "ce_",
        "euler_",
        "hochschild_",
        "connes_",
        "one_is",
        "poisson_",
        "star_",
        "rank2_",
        "maurer_",
        "shifted_",
        "parse_",
    )
    for prefix in prefixes:
        assert any(n.startswith(prefix) for n in names), prefix


def test_same_seed_same_results():
    a = [(r.name, r.ok, r.detail) for r in run_selftest(7)]
    b = [(r.name, r.ok, r.detail) for r in run_selftest(7)]
    assert a == b


def test_result_rendering():
    assert CheckResult("demo", True).as_text() == "ok demo"
    assert CheckResult("demo", False, "boom").as_text() == "FAIL demo: boom"
