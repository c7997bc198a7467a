import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccakit
from ccakit import cartesian, groups, harness, suites
from ccakit.cli import main
from ccakit.groups import (
    direct_product,
    make_cyclic,
    make_dihedral,
    make_f21,
    make_q8,
    make_symmetric_table,
)
from ccakit.harness import (
    check_f21_census,
    cmd_complete_cca,
    cmd_product_demo,
    cmd_verdict,
    f21_census,
)
from ccakit.suites import lemma_property_suite


@pytest.fixture(scope="module")
def census():
    return f21_census()


def test_census_shape(census):
    check_f21_census(census)
    assert census.total_sets == 1023
    assert census.connected_sets == 1009
    assert census.orbit_count == 55
    assert census.connected_orbit_count == 51
    assert len(census.rows) == 51
    assert sum(row["orbit_size"] for row in census.rows) == 1009


def test_census_rows_are_sorted_and_tagged(census):
    masks = [row["mask"] for row in census.rows]
    assert masks == sorted(masks)
    assert all(row["kind"] == "connection-set" for row in census.rows)
    negatives = [row for row in census.rows if not row["is_cca"]]
    assert len(negatives) == 1
    assert negatives[0]["iso_class"] == 0
    assert all(row["iso_class"] is None for row in census.rows if row["is_cca"])


def test_census_check_survives_optimized_mode():
    # python -O strips bare asserts; the census check must still fail on a
    # report with total_sets = 1 and noncca_class_count = 7.
    code = (
        "from ccakit.harness import CensusReport, check_f21_census\n"
        "check_f21_census(CensusReport('F21', 1, 0, 0, 0, 0, 7, [], []))\n"
    )
    src = str(Path(ccakit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert "AssertionError" in proc.stderr


def test_census_builds_aut_f21_at_most_once(monkeypatch):
    # Aut(G) is kept per table, and the census and its check share one table.
    # Only group_automorphisms builds a PermGroup by Schreier-Sims in groups.
    built = []

    class Counted(groups.PermGroup):
        def __init__(self, degree, *args, **kwargs):
            built.append(degree)
            super().__init__(degree, *args, **kwargs)

    monkeypatch.setattr(groups, "PermGroup", Counted)
    groups._group_from_text.cache_clear()  # a new F21 table, with nothing kept
    check_f21_census(f21_census())
    assert built == [21]


def test_lemma_property_suite_rows_all_hold():
    # The lemma rows of `ccakit oracle-suite`: translations, coset blocks,
    # fixers and the quotient lemma, mostly on the order-21 negative graph.
    rows = lemma_property_suite()
    assert len(rows) == 18
    assert all(row["suite"] == "lemma" for row in rows)
    assert [row["name"] for row in rows if not row["ok"]] == []
    # They hold only names, flags and orders, as `ccakit oracle-suite --json`
    # writes them.
    golden = Path(__file__).parent / "data" / "lemma_property_suite.jsonl"
    lines = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    assert lines == golden.read_text(encoding="utf-8")


def test_package_names_are_its_public_names():
    bound = {
        name
        for name, value in vars(ccakit).items()
        if not name.startswith("_") and not isinstance(value, type(ccakit))
    }
    assert bound == set(ccakit.__all__)
    assert len(ccakit.__all__) == len(set(ccakit.__all__))


def test_suite_rosters_are_the_registry_tables():
    # The suites name their groups; each table equals the one its
    # constructors build, labels, name and identity included.
    z2, z4 = make_cyclic(2), make_cyclic(4)
    built = {f"z{k}": make_cyclic(k) for k in (1, 3, 5, 6, 7, 8, 9, 10, 12, 15)}
    built.update(
        z2=z2,
        z4=z4,
        z2xz2=direct_product(z2, z2),
        z4xz2=direct_product(z4, z2),
        z2xz2xz2=direct_product(direct_product(z2, z2), z2),
        s3=make_symmetric_table(3),
        d4=make_dihedral(4),
        d5=make_dihedral(5),
        q8=make_q8(),
        f21=make_f21(),
    )
    roster = suites.groups_up_to_order_8()
    assert [name for name, _ in roster] == list(suites._SMALL_GROUP_NAMES)
    assert {*suites._SMALL_GROUP_NAMES, *suites._DIGRAPH_ROSTER} <= built.keys()
    for name, expected in built.items():
        table = groups.group_from_name(name)
        assert (table.mult, table.labels, table.name, table.identity) == (
            expected.mult, expected.labels, expected.name, expected.identity,
        )
    assert all(table is groups.group_from_name(name) for name, table in roster)


def test_cmd_complete_cca_custom_roster():
    rows, summary = cmd_complete_cca(["z5", "q8"])
    assert [row["group"] for row in rows] == ["z5", "q8"]
    assert rows[0]["is_cca"] and not rows[1]["is_cca"]
    assert "2 groups" in summary[0]
    with pytest.raises(ValueError):
        cmd_complete_cca([])


def test_cmd_complete_cca_answers_2groups_past_order_64():
    # The subgroup criterion is decided on cyclic subgroups, so no lattice
    # is closed and the order-64 cap of all_subgroups does not apply.
    rows, _ = cmd_complete_cca(["q8xz2^4"])
    assert rows[0]["order"] == 128
    assert not rows[0]["is_cca"] and rows[0]["hamiltonian_2_group"] and rows[0]["ok"]


def test_cmd_complete_cca_answers_z2_8():
    # Each color is one element, so the color group is G_L, and primitivity
    # needs none of Z2^8's 417,199 subgroups.
    rows, _ = cmd_complete_cca(["z2^8"])
    assert (rows[0]["order"], rows[0]["ao_order"]) == (256, 256)
    assert rows[0]["is_cca"] and not rows[0]["hamiltonian_2_group"] and rows[0]["ok"]


def test_cmd_product_demo_degenerate():
    rows, summary = cmd_product_demo(1)
    kinds = [row["kind"] for row in rows]
    assert kinds == ["verdict", "factors", "random-set", "random-set", "random-set"]
    assert rows[0]["ao_order"] == 168
    assert rows[1]["factor1_n"] == 1 and rows[1]["factor2_n"] == 21
    assert any("factors recovered" in line for line in summary)


def test_cmd_product_demo_validates_m():
    for bad in (0, 2, 3, 7, 9):
        with pytest.raises(ValueError):
            cmd_product_demo(bad)


def test_cmd_verdict_roundtrip():
    rows, summary = cmd_verdict("z9", "1,8")
    assert rows[0]["is_cca"] is True
    assert rows[0]["ao_order"] == 18
    assert "positive verdict" in summary[0]
    rows, summary = cmd_verdict("f21", "a,a^-1,ax,(ax)^-1")
    assert rows[0]["is_cca"] is False
    assert "witness" in summary[1]


F21_NEGATIVE = "a,a^2,x^4a,x^6a^2"
Z5XF21_NEGATIVE = "(1,e),(4,e),(e,a),(e,a^2),(e,x^4a),(e,x^6a^2)"


def test_cmd_verdict_checks_the_product_theorem():
    rows, summary = cmd_verdict("f21", F21_NEGATIVE)
    assert rows[0]["is_cca"] is False
    assert (rows[0]["factor1_n"], rows[0]["factor2_n"]) == (1, 21)
    assert "factors on 1 and 21 vertices" in summary[-1]
    rows, _ = cmd_verdict("z5xf21", Z5XF21_NEGATIVE)
    assert rows[0]["is_cca"] is False
    assert (rows[0]["factor1_n"], rows[0]["factor2_n"]) == (5, 21)
    # the theorem covers neither positive verdicts nor even orders
    rows, _ = cmd_verdict("z9", "1,8")
    assert "factor1_n" not in rows[0]
    rows, _ = cmd_verdict("q8", "-1,i,-i,j,-j,k,-k")
    assert rows[0]["is_cca"] is False and "factor1_n" not in rows[0]


def test_theorem_checks_that_h_is_cca(monkeypatch, capsys):
    seen = []

    def not_cca(group):
        seen.append(group.order)
        return False, []

    monkeypatch.setattr(cartesian, "cca_group_verdict", not_cca)
    with pytest.raises(AssertionError, match="H of order 5 is not CCA"):
        cmd_verdict("z5xf21", Z5XF21_NEGATIVE)
    assert main(["verdict", "--group", "f21", "--set", F21_NEGATIVE]) == 1
    assert seen == [5, 1]
    capsys.readouterr()


def test_theorem_check_failure_is_a_check_failure(monkeypatch, capsys):
    monkeypatch.setattr(cartesian, "_factor_product", lambda graph: None)
    with pytest.raises(AssertionError, match="order-21 instance"):
        cmd_verdict("f21", F21_NEGATIVE)
    assert main(["verdict", "--group", "f21", "--set", F21_NEGATIVE]) == 1
    capsys.readouterr()


def test_product_demo_checks_negative_random_sets(monkeypatch):
    # seed 3 draws a negative random set of F21 first
    rows, _ = cmd_product_demo(1, seed=3)
    randoms = [row for row in rows if row["kind"] == "random-set"]
    assert [row["is_cca"] for row in randoms] == [False, True, True]
    assert (randoms[0]["factor1_n"], randoms[0]["factor2_n"]) == (1, 21)
    assert all("factor1_n" not in row for row in randoms[1:])
    # the demo's own product factors through harness's binding, so only the
    # theorem's call on the random set sees no factor, and fails
    calls = []

    def no_factor(graph):
        calls.append(graph.n)

    monkeypatch.setattr(cartesian, "_factor_product", no_factor)
    with pytest.raises(AssertionError, match="order-21 instance"):
        cmd_product_demo(1, seed=3)
    assert calls == [21]


def test_cli_verdict_and_json(tmp_path, capsys):
    out = tmp_path / "rows.jsonl"
    code = main(["verdict", "--group", "z9", "--set", "1,8", "--json", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["group"] == "z9" and row["is_cca"] is True
    assert "positive verdict" in capsys.readouterr().out


def test_cli_verbose_echoes_rows(capsys):
    code = main(["complete-cca", "--roster", "/dev/null"])
    assert code == 2  # empty roster

    code = main(["verdict", "--group", "z9", "--set", "1,8", "--verbose"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count('"kind": "verdict"') == 1


def test_cli_usage_errors(capsys):
    assert main(["verdict", "--group", "z9", "--set", "1"]) == 2
    assert main(["verdict", "--group", "nope", "--set", "1,8"]) == 2
    assert main(["verdict", "--group", "z1000000", "--set", "1"]) == 2
    assert main(["product-demo", "--m", "3"]) == 2
    deep = "(" * 3000 + "a" + ")" * 3000
    assert main(["verdict", "--group", "f21", "--set", deep]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["f21-census", "--jobs", "2"])  # the census runs in one process
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_reports_check_failures(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise AssertionError("forced failure")

    monkeypatch.setattr(harness, "cmd_verdict", boom)
    assert main(["verdict", "--group", "z9", "--set", "1,8"]) == 1
    assert "forced failure" in capsys.readouterr().err


def test_cli_roster_file(tmp_path, capsys):
    roster = tmp_path / "roster.txt"
    roster.write_text("z5\n# comment\nq8  # trailing note\n\n")
    code = main(["complete-cca", "--roster", str(roster), "--verbose"])
    assert code == 0
    out = capsys.readouterr().out
    assert '"group": "z5"' in out and '"group": "q8"' in out


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["f21-census"], "f21_census.jsonl"),
        (["product-demo", "--m", "5"], "product_demo_m5.jsonl"),
        (["complete-cca"], "complete_cca.jsonl"),
    ],
)
def test_cli_rows_match_golden_files(argv, golden, tmp_path, capsys):
    # The rows of fixed inputs hold only orders, verdicts, classes and
    # notes, never a found generator or map, so any difference is a change
    # of answers.
    out = tmp_path / "rows.jsonl"
    assert main(argv + ["--json", str(out)]) == 0
    expected = Path(__file__).parent / "data" / golden
    assert out.read_text(encoding="utf-8") == expected.read_text(encoding="utf-8")
