import json
import os
from itertools import combinations

import pytest

import degen_atlas.cli as cli
from degen_atlas import ec_oracle, period_relations, surface_pair
from degen_atlas.chamber_walk import verify_fans
from degen_atlas.period_relations import verify_relations
from degen_atlas.cli import run
from degen_atlas.root_classifier import UnclassifiableError, verify_classification
from degen_atlas.surface_pair import catalogue_ids, catalogue_model, catalogue_row
from oracles import loop_pairing, run_python, run_python_O, toggle_tick
from test_ec_oracle import _relation_blind_sampler
from test_period_relations import _paper_divisor


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["roots", "NOSUCH"])
    assert exc.value.code == 2


def test_roots_e8e8(capsys):
    code, rep = run_json(capsys, ["roots", "E8E8"])
    assert code == 0
    assert rep["type"] == "E8+E8+<-4>"
    assert rep["roots2_count"] == 480
    assert rep["odd_norm_members"] == 0
    assert rep["schema"] == "degen-atlas/1"


@pytest.mark.parametrize("bound", ["2", "3", "4"])
def test_printed_simple_roots_are_roots(capsys, bound):
    # each lifted simple root is a -2 class in h-perp in xi-perp, and any two
    # pair to 0 or +-1, read from the ambient form, not from L
    for mid in catalogue_ids():
        code, rep = run_json(capsys, ["roots", mid, "--bound", bound])
        assert code == 0
        m = catalogue_model(mid)
        gram = m.lattice.gram_form.gram
        simples = [v for comp in rep["simple_roots"] for v in comp]
        assert len(simples) == sum(int(p[1:]) for p in rep["type"].split("+") if p != "<-4>")
        for v in simples:
            assert [loop_pairing(gram, v, w) for w in (m.h, m.xi, v)] == [0, 0, -2], mid
        for a, b in combinations(simples, 2):
            assert loop_pairing(gram, a, b) in (-1, 0, 1), mid


def test_roots_bound_above_4_is_a_usage_error(capsys):
    # roots have norm -2 or -4; a larger bound only grows the search
    with pytest.raises(SystemExit) as exc:
        run(["roots", "E8E8", "--bound", "5"])
    assert exc.value.code == 2
    assert "--bound" in capsys.readouterr().err


def test_chambers_a15_json_fields(capsys):
    code, rep = run_json(capsys, ["chambers", "A15"])
    assert code == 0
    assert rep["chambers"] == 2
    assert rep["walls"] == [[1, 0]]
    assert rep["boundary"] == [[2, 1], [2, -1]]


def test_chambers_text_has_diagram(capsys):
    code = run(["chambers", "D17"])
    out = capsys.readouterr().out
    assert code == 0
    assert "3h-2xi" in out
    assert "chamber" in out


def test_json_and_text_agree_field_for_field(capsys):
    code, rep = run_json(capsys, ["relation", "D8D8"])
    assert code == 0
    code = run(["relation", "D8D8"])
    text = capsys.readouterr().out
    for key in ("schema", "model", "status"):
        assert f"{key}: {rep[key]}" in text
    assert str(rep["certificate"])[1:-1].replace("'", "") in text.replace("'", "")


def test_relation_certificates(capsys):
    code, rep = run_json(capsys, ["relation", "D17"])
    assert code == 0
    assert rep["status"] == "certified"
    assert rep["certificate"] == [3, 2]


@pytest.mark.parametrize("mid", ["E8E8", "E8D9", "E7E7A3"])
def test_relation_of_a_d_below_0_model_reads_in_one_orientation(capsys, mid):
    # these catalogue states have d < 0; the report names the points as the
    # printed relation does, with no ticked symbol, as verify does
    code, rep = run_json(capsys, ["relation", mid])
    assert code == 0 and rep["status"] == "certified"
    table = {toggle_tick(s): c for s, c in catalogue_row(mid).relation.items()}
    assert rep["target"] == table == dict(_paper_divisor(rep["relation"]).coeffs)
    assert not any("'" in s for s in rep["target"]) and "'" not in rep["imposed"]["R_h"]


def test_build_roundtrip(capsys):
    code, rep = run_json(
        capsys,
        ["build", "--v0", "P2", "--v1", "P2", "--n", "9", "--h",
         "l-e1+4l'-2e'1-e'2-e'3-e'4-e'5-e'6-e'7-e'8-e'9"],
    )
    assert code == 0
    assert rep["h_square"] == 4
    assert rep["d"] == 0


def test_build_rejects_bad_h(capsys):
    code = run(["build", "--v0", "P2", "--v1", "P2", "--n", "9", "--h", "l"])
    assert code == 2
    err = capsys.readouterr().err
    assert "h.h" in err


def test_build_rejects_an_h_that_meets_xi(capsys):
    # (2l)^2 = 4, but 2l.xi = -6
    code = run(["build", "--v0", "P2", "--v1", "P2", "--n", "9", "--h", "2l"])
    assert code == 2
    assert capsys.readouterr() == ("", "error: h.xi must be 0 (numerically Cartier)\n")


def test_build_rejects_unknown_symbol(capsys):
    code = run(["build", "--v0", "P1xP1", "--v1", "P2", "--n", "2", "--h", "3l-e1"])
    assert code == 2
    assert "alphabet" in capsys.readouterr().err


def test_build_rejects_terms_without_signs(capsys):
    code = run(["build", "--v0", "P2", "--v1", "P2", "--n", "9", "--h", "e1e1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: cannot parse 'e1e1': the term at position 2 ('e1') needs a sign, + or -\n"


def test_build_rejects_an_empty_h(capsys):
    # an empty --h is a class with no term, not an absent polarization
    code = run(["build", "--v0", "P2", "--v1", "P2", "--n", "9", "--h", ""])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cannot parse '': a class needs at least one term\n"


@pytest.mark.parametrize("argv", [["verify", "--all", "--json"], ["chambers", "E8E8"]],
                         ids=["verify-json", "chambers"])
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_without_a_traceback(argv, unbuffered):
    # as in `degen-atlas ... | head -1` once head has exited: the reader of
    # stdout is gone, so a print (unbuffered) or the last flush fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_python(["-m", "degen_atlas.cli", *argv], timeout=120, stdout=write_end,
                          env={"PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert "Traceback" not in done.stderr
    assert done.stderr == ""


def test_broken_invariant_exits_1_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(ec_oracle, "_solution_sampler", _relation_blind_sampler)
    code = run(["oracle", "D17", "--trials", "10"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sampled configuration violates")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_unclassifiable_lattice_exits_1_with_one_line(capsys, monkeypatch):
    # UnclassifiableError is an InvariantError, not a usage error
    def unclassifiable(roots, seed=0):
        raise UnclassifiableError("node of degree > 3")

    monkeypatch.setattr(cli, "classify", unclassifiable)
    code = run(["roots", "D17"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: node of degree > 3\n"


def test_oracle_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("DEGEN_ATLAS_SEED", "123")
    code, rep = run_json(capsys, ["oracle", "A15", "--trials", "5"])
    assert code == 0
    assert rep["seed"] == 123
    # --seed wins over the variable
    code, rep = run_json(capsys, ["oracle", "A15", "--trials", "5", "--seed", "9"])
    assert rep["seed"] == 9
    monkeypatch.delenv("DEGEN_ATLAS_SEED")
    code, rep = run_json(capsys, ["oracle", "A15", "--trials", "5", "--seed", "9"])
    assert rep["seed"] == 9


def test_oracle_seed_env_not_an_integer_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("DEGEN_ATLAS_SEED", "abc")
    assert run(["oracle", "D17", "--trials", "5"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: DEGEN_ATLAS_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_oracle_without_trials_is_a_usage_error(capsys, trials):
    assert run(["oracle", "D17", "--trials", trials]) == 2
    out = capsys.readouterr()
    assert "SUPPORTED" not in out.out
    assert "trials" in out.err


@pytest.mark.parametrize("trials", ["10001", "99999999999999999999999"])
def test_oracle_trials_above_the_bound_are_a_usage_error(capsys, trials):
    assert ec_oracle.MAX_TRIALS == 10_000  # the bound the README states
    assert run(["oracle", "D17", "--trials", trials]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: trials must be between 1 and 10000, got {trials}\n"


def test_list_command(capsys):
    code, rep = run_json(capsys, ["list"])
    assert code == 0
    assert len(rep["models"]) == 9
    ids = [m["id"] for m in rep["models"]]
    assert "D17" in ids and "A15" in ids


def test_list_full_exports_lattice_data(capsys):
    code, rep = run_json(capsys, ["list", "--full"])
    assert code == 0
    entry = rep["models"][0]
    assert len(entry["gram"]) == 20
    assert "xi" in entry and "basis" in entry


def test_verify_aggregation_and_exit_codes(capsys, monkeypatch):
    good = {"suite": "s1", "pass": True, "models": {"x": {"ok": True}}}
    bad = {"suite": "s2", "pass": False, "rows": {"y": {"ok": False}}}
    monkeypatch.setattr(cli, "verify_classification", lambda: good)
    monkeypatch.setattr(cli, "verify_relations", lambda: dict(good, suite="s2"))
    monkeypatch.setattr(cli, "verify_fans", lambda: dict(good, suite="s3"))
    code, rep = run_json(capsys, ["verify", "--all"])
    assert code == 0 and rep["passed"] == 3 and rep["pass"]

    monkeypatch.setattr(cli, "verify_fans", lambda: bad)
    code = run(["verify", "--all"])
    out = capsys.readouterr()
    assert code == 1
    assert "FAIL" in out.out
    assert "failed" in out.err


def test_verify_reads_the_catalogue_table(capsys, monkeypatch):
    # a wrong expected type, fan or relation in the table must fail verify,
    # for that model only; both of A11E6's states read its one relation
    table = surface_pair._CATALOGUE_TABLE
    boundary, walls = catalogue_row("E8E8").fan
    a11e6 = table["A11E6"]
    monkeypatch.setitem(table, "D17", table["D17"]._replace(type="D16+A1"))
    monkeypatch.setitem(table, "E8E8", table["E8E8"]._replace(fan=(boundary, walls[:1])))
    monkeypatch.setitem(table, "A11E6",
                        a11e6._replace(relation={**a11e6.relation, "p1": -2, "p2": 0}))

    types, fans, relations = verify_classification(), verify_fans(), verify_relations()
    assert not types["pass"] and not fans["pass"] and not relations["pass"]
    assert [mid for mid, r in types["models"].items() if not r["ok"]] == ["D17"]
    assert types["models"]["D17"]["type"] == "D17"
    assert [mid for mid, r in fans["models"].items() if not r["ok"]] == ["E8E8"]
    assert fans["models"]["E8E8"]["walls"] == [[1, -1], [1, -2]]
    assert [key for key, r in relations["rows"].items() if not r["ok"]] == ["A11E6-d3", "A11E6-d9"]

    assert run(["verify", "--all"]) == 1
    out = capsys.readouterr()
    assert "[FAIL] root-lattice classification: D17" in out.out
    assert "[FAIL] chamber fans: E8E8" in out.out
    assert "[FAIL] point relations: A11E6-d9" in out.out
    assert "25/29 checks passed" in out.out
    assert "verification failed" in out.err


def test_verify_checks_each_relation_rows_shapes_and_d(capsys, monkeypatch):
    # a wrong d in one row (D17, d > 0) and swapped shapes in another (E8D9,
    # whose model has d < 0, so the paper lists its components in our
    # opposite order) must fail those rows only, though both certify
    rows = {row.key: row for row in period_relations.relation_rows()}
    rows["D17"] = rows["D17"]._replace(row_d=8)
    rows["E8D9"] = rows["E8D9"]._replace(row_shapes=rows["E8D9"].row_shapes[::-1])
    monkeypatch.setattr(period_relations, "relation_rows", lambda: tuple(rows.values()))

    relations = verify_relations()
    assert [key for key, r in relations["rows"].items() if not r["ok"]] == ["E8D9", "D17"]
    assert {r["status"] for r in relations["rows"].values()} == {"certified"}

    assert run(["verify", "--all"]) == 1
    out = capsys.readouterr()
    assert "[FAIL] point relations: D17" in out.out
    assert "[FAIL] point relations: E8D9" in out.out
    assert "27/29 checks passed" in out.out
    assert "verification failed" in out.err


def test_verify_all_under_python_O():
    # no verification check may be an assert that -O strips
    done = run_python_O(["-m", "degen_atlas.cli", "verify", "--all", "--json"], timeout=600)
    assert done.returncode == 0, done.stderr
    rep = json.loads(done.stdout)
    assert (rep["passed"], rep["failed"]) == (29, 0)


@pytest.mark.parametrize(
    "patch, argv, message",
    [
        # reflect fixes every class, so xi recomputed from the flopped tags
        # differs from the transported xi at E8E8's first interior wall
        ("surface_pair.reflect = lambda m, e, c: c", ["chambers", "E8E8"],
         "error: flop of e'10: tag-recomputed xi must match transport"),
        # in_span answers zero coefficients, which re-expand to 0, not the target
        ("period_relations.in_span = lambda t, gens: (0,) * len(gens)", ["relation", "D17"],
         "error: certificate (0, 0) re-expands to 0, not 45q - 11p1 - 2p2"),
    ],
    ids=["flop-xi-transport", "derive-re-expansion"],
)
def test_load_bearing_checks_exit_1_under_python_O(patch, argv, message):
    code = (
        "import sys\n"
        "from degen_atlas import cli, period_relations, surface_pair\n"
        f"{patch}\n"
        f"sys.exit(cli.run({argv!r}))\n"
    )
    done = run_python_O(["-c", code], timeout=120)
    assert done.returncode == 1
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith(message)
    assert "Traceback" not in done.stderr
