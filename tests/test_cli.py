import collections
import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pdesctl import (
    Alphabet,
    EpsProb,
    InvariantError,
    NotControllableError,
    NotObservableError,
    NotSublanguageError,
    ObservationClasses,
    Pdes,
    ScalingMap,
    SynthesisError,
    Witness,
    check_controllable,
    check_observable,
    dumps_automaton,
    dumps_scaling_map,
    dumps_supervisor_map,
    explore,
    infimal_pipeline,
    is_sublanguage,
    language_equivalent,
    loads_automaton,
    loads_scaling_map,
    loads_supervisor_map,
    minimize,
    observer,
    product,
    scaling_from_spec,
    strip_eps_edges,
    supervisor_from_scaling,
)
from pdesctl import cli
from pdesctl.automata import JointSupport
from pdesctl.cli import main
from conftest import (
    E,
    branch_plant,
    branch_spec,
    build,
    drop_transitions,
    eps_scaled,
    load_gen,
    loop_plant,
    loop_spec,
    random_alphabet,
    random_plant,
    random_subspec,
    robot_plant,
    robot_spec,
    synthesis_pair,
    wild_pair,
)
from oracles import brute_minimal_count, reference_quotient

F = Fraction
DEGREE = "infinitesimal degree must be a positive integer without leading zeros"
DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("PDES_COLOR", "0")


def write(tmp_path, name, pdes):
    path = tmp_path / name
    path.write_text(dumps_automaton(pdes))
    return str(path)


@pytest.fixture
def robot_files(tmp_path):
    return write(tmp_path, "robot_g.pda", robot_plant()), write(tmp_path, "robot_h.pda", robot_spec())


@pytest.fixture
def loop_files(tmp_path):
    return write(tmp_path, "loop_g.pda", loop_plant()), write(tmp_path, "loop_h.pda", loop_spec())


class TestCheckCommands:
    def test_check_ctrl_holds(self, robot_files, capsys):
        g, h = robot_files
        assert main(["check-ctrl", g, h]) == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_check_ctrl_fails_with_witness(self, loop_files, capsys):
        g, h = loop_files
        assert main(["check-ctrl", g, h]) == 1
        out = capsys.readouterr().out
        assert "FAILS" in out
        assert "WITNESS s1=s1 s2=- event=s3 lhs=0.5 rhs=0.25" in out

    def test_check_obs_fails_with_witness(self, loop_files, capsys):
        g, h = loop_files
        assert main(["check-obs", g, h]) == 1
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("WITNESS"))
        assert "event=s2" in line
        assert "0.05" in line

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.pda")
        assert main(["check-ctrl", missing, missing]) == 2

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pda"
        bad.write_text("states x0\n")
        assert main(["check-ctrl", str(bad), str(bad)]) == 2
        capsys.readouterr()
        text = dumps_automaton(robot_plant())
        assert "initial: x0\n" in text
        bad.write_text(text.replace("initial: x0\n", ""))
        assert main(["eval", str(bad), ""]) == 2
        assert capsys.readouterr().err == "error: missing 'initial:' line\n"


    def test_duplicate_initial_is_input_error(self, tmp_path, capsys):
        text = dumps_automaton(robot_plant())
        first = text.splitlines()[1]
        assert first.startswith("initial: ")
        bad = tmp_path / "bad.pda"
        bad.write_text(text.replace(first, f"{first}\n{first}", 1))
        assert main(["check-ctrl", str(bad), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 3: duplicate initial line" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("old, new, message", [
        ("controllable: s1 s2", "controllable: s1 s2 s1", "line 3: duplicate event 's1'"),
        ("uncontrollable: s3 s4 s5", "uncontrollable: s3 s4 s5 s2", "line 4: duplicate event 's2'"),
        ("observable: s1 s2 s3", "observable: s1 s2 s3 zz", "line 5: unknown event 'zz'"),
        ("unobservable: s4 s5", "unobservable: s4 s5 zz", "line 6: unknown event 'zz'"),
        ("unobservable: s4 s5", "unobservable: s4 s5 s3", "line 6: duplicate event 's3'"),
        ("x0 s3 x1 0.25", "x0 s3 x1 0+^0", f"line 7: {DEGREE}: '0+^0'"),
        ("x1 s1 x0 0.5", "x1 s1 x0 0+^0·1/2", f"line 10: {DEGREE}: '0+^0·1/2'"),
        ("x1 s1 x0 0.5", "x1 s1 x0 0+^01", f"line 10: {DEGREE}: '0+^01'"),
        ("x2 0.375\ntrans: x0 s5 x3 0.375", "x2 1/0\ntrans: x0 s5 x3 1/0", "line 8: zero denominator"),
        ("states: x0 x1 x2 x3", "states: x0 x1 x2 x3 x0", "line 1: duplicate state 'x0'"),
        ("states: x0 x1 x2 x3", "states: x0 x1 x2 x3\nstates: x1", "line 2: duplicate state 'x1'"),
        ("x1 s1 x0 0.5", "x1 s1 x0 0", "line 10: transitions must have positive probability"),
        ("x1 s1 x0 0.5", "x1 zz x0 0.5", "line 10: unknown event 'zz'"),
    ])
    def test_alphabet_error_names_its_line(self, tmp_path, capsys, old, new, message):
        text = dumps_automaton(robot_plant())
        assert text.splitlines()[2:6] == [
            "controllable: s1 s2", "uncontrollable: s3 s4 s5",
            "observable: s1 s2 s3", "unobservable: s4 s5",
        ]
        bad = tmp_path / "bad.pda"
        bad.write_text(text.replace(old, new, 1))
        assert main(["check-ctrl", str(bad), str(bad)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_unreachable_state_is_a_warning(self, robot_files, tmp_path, capsys):
        text = dumps_automaton(robot_plant())
        path = tmp_path / "g9.pda"
        path.write_text(text.replace("states: x0 x1 x2 x3", "states: x0 x1 x2 x3 x9", 1))
        assert main(["check-ctrl", str(path), robot_files[1]]) == 0
        out, err = capsys.readouterr()
        assert out == "probabilistic controllability: HOLDS\n"
        assert err == f"warning: {path}: dropping 1 unreachable state(s)\n"

    def test_verdicts_are_colored_on_a_tty(self, robot_files, loop_files, monkeypatch, capsys):
        # both fixtures write into one tmp_path: the robot pair still holds
        # and the loop pair still fails, so neither overwrote the other
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        monkeypatch.delenv("PDES_COLOR")
        assert main(["check-ctrl", *robot_files]) == 0
        assert capsys.readouterr().out == "probabilistic controllability: \x1b[32mHOLDS\x1b[0m\n"
        assert main(["check-ctrl", *loop_files]) == 1
        assert capsys.readouterr().out.startswith("probabilistic controllability: \x1b[31mFAILS\x1b[0m\n")
        monkeypatch.setenv("PDES_COLOR", "0")
        assert main(["check-ctrl", *robot_files]) == 0
        assert capsys.readouterr().out == "probabilistic controllability: HOLDS\n"

    def test_zero_denominator_is_input_error(self, tmp_path, capsys):
        text = dumps_automaton(robot_plant())
        assert " 0.25\n" in text
        bad = tmp_path / "bad.pda"
        bad.write_text(text.replace(" 0.25\n", " 1/0\n"))
        assert main(["check-ctrl", str(bad), str(bad)]) == 2
        assert "line " in capsys.readouterr().err


class TestSynthesize:
    def test_writes_maps(self, robot_files, tmp_path, capsys):
        g, h = robot_files
        scaling_out = str(tmp_path / "k.map")
        sup_out = str(tmp_path / "sp.map")
        rc = main(["synthesize", g, h, "--scaling-out", scaling_out, "--supervisor-out", sup_out])
        assert rc == 0
        scaling_text = Path(scaling_out).read_text()
        scaling = loads_scaling_map(scaling_text)
        assert any(F(4, 5) in vec for vec in scaling.vectors.values())
        assert "0.8" in scaling_text
        sup = loads_supervisor_map(Path(sup_out).read_text())
        assert any(d.support() == [(2, F(1, 5)), (3, F(4, 5))] for d in sup.dists.values())

    def test_unachievable_spec_reports_and_fails(self, loop_files, tmp_path, capsys):
        g, h = loop_files
        rc = main(["synthesize", g, h,
                   "--scaling-out", str(tmp_path / "k.map"),
                   "--supervisor-out", str(tmp_path / "sp.map")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "inf-pco" in out
        assert not (tmp_path / "k.map").exists()



def eps_robot_spec(observable=("s1", "s2", "s3")):
    """The robot spec with an infinitesimal probability on (q1, s1)."""
    spec = robot_spec(observable)
    trans = spec.transition_map()
    trans[("q1", "s1")] = ("q0", EpsProb(F(2, 5), 1))
    return Pdes(spec.alphabet, spec.initial, trans)


def other_alphabet_spec():
    return build(Alphabet.make(["s1"], ["s3"], ["s1", "s3"]), "y0", [("y0", "s1", "y0", E(1, 2))])


class TestSynthesizeFallback:
    """Exact output of every way `synthesize` can fail; none writes a map."""

    @pytest.mark.parametrize("plant, spec, code, out, err", [
        pytest.param(
            robot_spec, robot_plant, 1,
            "synthesis failed: specification is not a sublanguage of the plant at ('s3',) on 's1'\n", "",
            id="not-sublanguage"),
        pytest.param(
            # it also fails observability, but inf-pco rejects it too, so
            # no check is printed and inf-pco is not suggested
            lambda: robot_spec(("s1", "s2")), lambda: robot_plant(("s1", "s2")), 1,
            "synthesis failed: specification is not a sublanguage of the plant at ('s3',) on 's1'\n", "",
            id="not-sublanguage-fails-check"),
        pytest.param(
            robot_plant, lambda: drop_transitions(robot_spec(), [("q0", "s4")]), 1,
            "synthesis failed: uncontrollable event 's4' after (): "
            "plant probability 0.375 != spec probability 0\n", "",
            id="strict-controllability"),
        pytest.param(
            robot_plant, eps_robot_spec, 2,
            "", "error: synthesis requires ordinary probabilities\n",
            id="eps-passes-checks"),
        pytest.param(
            lambda: robot_plant(("s1", "s2")), lambda: eps_robot_spec(("s1", "s2")), 1,
            "probabilistic observability: FAILS\n"
            "violation for s3 / s5 on event s1: 0.5 vs 0+^1\u00b72/5\n"
            "WITNESS s1=s3 s2=s5 event=s1 lhs=0.5 rhs=0+^1\u00b72/5\n"
            "specification is not achievable; consider inf-pco for the closest superlanguage\n", "",
            id="eps-fails-check"),
        pytest.param(
            robot_plant, other_alphabet_spec, 2,
            "", "error: operands must share one alphabet\n",
            id="alphabet-mismatch"),
    ])
    def test_exact_output(self, tmp_path, capsys, plant, spec, code, out, err):
        g, h = write(tmp_path, "g.pda", plant()), write(tmp_path, "h.pda", spec())
        maps = [tmp_path / "k.map", tmp_path / "sp.map"]
        argv = ["synthesize", g, h, "--scaling-out", str(maps[0]), "--supervisor-out", str(maps[1])]
        assert main(argv) == code
        assert capsys.readouterr() == (out, err)
        assert not any(path.exists() for path in maps)

    @pytest.mark.parametrize("plant, spec, code", [
        pytest.param(robot_plant, lambda: drop_transitions(robot_spec(), [("q0", "s4")]), 1, id="strict-controllability"),
        pytest.param(loop_plant, loop_spec, 1, id="fails-controllability"),
        pytest.param(lambda: robot_plant(("s1", "s2")), lambda: robot_spec(("s1", "s2")), 1, id="fails-observability"),
        pytest.param(robot_plant, eps_robot_spec, 2, id="eps-passes-checks"),
        pytest.param(lambda: robot_plant(("s1", "s2")), lambda: eps_robot_spec(("s1", "s2")), 1, id="eps-fails-check"),
    ])
    def test_one_joint_support(self, tmp_path, monkeypatch, plant, spec, code):
        """Synthesis and the two checks that explain its failure read one
        joint support of the plant and spec."""
        g, h = write(tmp_path, "g.pda", plant()), write(tmp_path, "h.pda", spec())
        built = []
        init = JointSupport.__init__

        def counting(self, a, b):
            built.append((dumps_automaton(a), dumps_automaton(b)))
            init(self, a, b)

        monkeypatch.setattr(JointSupport, "__init__", counting)
        argv = ["synthesize", g, h, "--scaling-out", str(tmp_path / "k.map"),
                "--supervisor-out", str(tmp_path / "sp.map")]
        assert main(argv) == code
        assert built == [(Path(g).read_text(), Path(h).read_text())]

class TestInfPco:
    def test_writes_result(self, tmp_path, capsys):
        g = write(tmp_path, "g.pda", branch_plant())
        h = write(tmp_path, "h.pda", branch_spec())
        out = str(tmp_path / "tilde.pda")
        assert main(["inf-pco", g, h, "--out", out]) == 0
        tilde = loads_automaton(Path(out).read_text())
        assert tilde.eval_language(("s3", "s2", "s3")) == tilde.eval_language(("s3",)) * F(1, 4)
        ratio = tilde.eval_language(("s3", "s2", "s3", "s2")) / tilde.eval_language(("s3", "s2", "s3"))
        assert ratio.magnitude == F(3, 5)

    def test_strip_eps_flag(self, tmp_path):
        g = write(tmp_path, "g.pda", branch_plant())
        h = write(tmp_path, "h.pda", branch_spec())
        out = str(tmp_path / "tilde.pda")
        assert main(["inf-pco", g, h, "--strip-eps", "--out", out]) == 0
        assert "0+" not in Path(out).read_text()

    def test_golden_output(self, capsys):
        """A fixed random 4-state plant and unachievable sub-spec: the
        output must stay byte-identical."""
        plant, spec = str(DATA / "infimal_plant.pda"), str(DATA / "infimal_spec.pda")
        assert main(["inf-pco", plant, spec]) == 0
        assert capsys.readouterr().out == (DATA / "infimal_golden.pda").read_text()

    # sha256 of the output on the benchmark generator's pair for k states:
    # `random_plant(Random(k), k)`, then `random_subspec` on the same
    # generator
    BENCHMARK_DIGESTS = {
        4: "32b17c40b4ce88c425d79d5980314e7d0a82e5e77d781f2dc7fbc0e5376d05ff",
        10: "a70de7a3695c7596ea0d1faa8e4cd0192afb9f73e7e5a29cedde8f5e7d15d3af",
        20: "d77da110f60a4d3dddd617e0059c043c7cced172b1e65aef583fa52bccb0fa42",
        40: "4c181763d7a8f1b22fe742c712c11661c99c4766d6e922155f8ba17c744bdbf2",
    }

    @pytest.mark.parametrize("k", sorted(BENCHMARK_DIGESTS))
    def test_golden_digests_on_benchmark_plants(self, tmp_path, k):
        gen = load_gen()
        rng = random.Random(k)
        plant = gen.random_plant(rng, k)
        g = write(tmp_path, "g.pda", plant)
        h = write(tmp_path, "h.pda", gen.random_subspec(rng, plant))
        out = tmp_path / "tilde.pda"
        assert main(["inf-pco", g, h, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.BENCHMARK_DIGESTS[k]

    def test_golden_is_the_minimal_result(self):
        """The golden output generates the pipeline's result and has no
        states to merge."""
        plant, spec, golden = (
            loads_automaton((DATA / f"infimal_{name}.pda").read_text()) for name in ("plant", "spec", "golden")
        )
        assert language_equivalent(golden, infimal_pipeline(plant, spec))
        assert len(minimize(golden).states) == len(golden.states)

    def test_outputs_are_minimal_quotients(self, tmp_path):
        """Plain and with --strip-eps, the output generates the (stripped)
        pipeline result with the brute-force minimal state count, on
        seeded sub-specs, half of them with infinitesimal probabilities."""
        rng = random.Random(5)
        stripped = 0
        for i in range(60):
            plant = random_plant(rng, random_alphabet(rng))
            spec = random_subspec(rng, plant)
            if i % 2:
                spec = eps_scaled(rng, spec)
            g = write(tmp_path, "g.pda", plant)
            h = write(tmp_path, "h.pda", spec)
            result = infimal_pipeline(plant, spec)
            stripped += result.has_eps_probabilities()
            for flag, expected in (([], result), (["--strip-eps"], strip_eps_edges(result))):
                out = tmp_path / "tilde.pda"
                assert main(["inf-pco", g, h, "--out", str(out), *flag]) == 0
                written = loads_automaton(out.read_text())
                assert language_equivalent(written, expected)
                assert len(written.states) == brute_minimal_count(expected)
        assert stripped >= 5

    def test_non_sublanguage_is_failure(self, loop_files):
        g, h = loop_files
        assert main(["inf-pco", h, g]) == 1

    # e2 is controllable and unobservable, and the plant gives it an
    # infinitesimal probability at n0; the spec lowers e0 and e1 and drops
    # e2 at n1, so the closure adds e2 at n0 off the spec
    EPS_PLANT = """\
states: n0 n1
initial: n0
controllable: e0 e1 e2
uncontrollable: e3
observable: e0 e1
unobservable: e2 e3
trans: n0 e0 n1 5/13
trans: n0 e1 n1 5/13
trans: n0 e2 n1 0+^{degree}·3/26
trans: n1 e1 n1 0.2
trans: n1 e2 n0 0.8
"""

    @pytest.mark.parametrize("degree", [1, 2])
    def test_off_spec_edge_at_infinitesimal_plant_probability(self, tmp_path, capsys, degree):
        # the off-spec ratio stays infinitesimal: it used to be EPS / p,
        # which is 26/3 for degree 1 (liveness above one) and has a negative
        # degree for degree 2
        plant = self.EPS_PLANT.format(degree=degree)
        spec = plant.replace("n0 e0 n1 5/13", "n0 e0 n1 20/91").replace("n1 e1 n1 0.2", "n1 e1 n1 4/35")
        spec = spec.replace("trans: n1 e2 n0 0.8\n", "")
        g, h, out = tmp_path / "g.pda", tmp_path / "h.pda", tmp_path / "tilde.pda"
        g.write_text(plant)
        h.write_text(spec)
        assert main(["inf-pco", str(g), str(h), "--out", str(out)]) == 0
        assert f"trans: x0 e2 x2 0+^{degree}·3/26\n" in out.read_text()
        capsys.readouterr()
        assert main(["check-ctrl", str(g), str(out)]) == 0
        assert main(["check-obs", str(g), str(out)]) == 0
        assert capsys.readouterr().out == (
            "probabilistic controllability: HOLDS\nprobabilistic observability: HOLDS\n"
        )


class TestSimulateCommand:
    def test_simulate_tsv(self, robot_files, tmp_path, capsys):
        g, h = robot_files
        sup_out = str(tmp_path / "sp.map")
        main(["synthesize", g, h, "--scaling-out", str(tmp_path / "k.map"), "--supervisor-out", sup_out])
        capsys.readouterr()
        rc = main(["simulate", "--plant", g, "--supervisor", sup_out,
                   "--trials", "2000", "--depth", "2", "--seed", "9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("string\tcount")
        line = next(l for l in out.splitlines() if l.startswith("s3.s1\t"))
        assert float(line.split("\t")[3]) == pytest.approx(0.1)

    @pytest.mark.parametrize("flag", ["--trials", "--depth"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_count_below_one_names_the_flag(self, robot_files, tmp_path, capsys, flag, value):
        g, _ = robot_files
        good = tmp_path / "good.map"
        good.write_text(ROBOT_MAP)
        argv = {"--trials": "10", "--depth": "2"}
        argv[flag] = value
        with pytest.raises(SystemExit) as stop:
            main(["simulate", "--plant", g, "--supervisor", str(good), *[x for kv in argv.items() for x in kv]])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: must be at least 1, got {value}\n" in err
        assert "max_depth" not in err and "Traceback" not in err


ROBOT_MAP = """\
controllable: s1 s2
uncontrollable: s3 s4 s5
observable: s1 s2 s3
unobservable: s4 s5
obs-classes: 1
obs-initial: t0
class t0
pattern 11 1
default
pattern 11 1
"""


class TestMalformedSupervisorMap:
    """Every malformed map exits 2 with a line-numbered message."""

    @pytest.mark.parametrize("old, new, line", [
        ("class t0", "class", 7),
        ("obs-classes: 1", "obs-classes: x", 5),
        ("pattern 11 1\ndefault", "pattern 11\ndefault", 8),
        ("pattern 11 1\ndefault", "pattern 111 1\ndefault", 8),
        ("obs-initial: t0", "obs-initial: t0\nobs-trans: t0 s1 t5", 7),
        ("obs-initial: t0", "obs-initial: t0\nobs-trans: t0 zz t0", 7),
        ("obs-initial: t0", "obs-initial: t0\nobs-trans: t0 s4 t0", 7),
        ("class t0", "class t7", 7),
        ("obs-initial: t0", "obs-initial: t3", 6),
        ("obs-initial: t0", "obs-initial: x", 6),
        ("pattern 11 1\ndefault", "pattern 11 1/0\ndefault", 8),
        ("pattern 11 1\ndefault", "pattern 01 -1/2\npattern 11 3/2\ndefault", 7),
        ("pattern 11 1\ndefault", "pattern 11 1/2\npattern 11 1/2\ndefault", 9),
        ("pattern 11 1\ndefault", "pattern 11 1\nclass t0\npattern 11 1\ndefault", 9),
        ("default\npattern 11 1\n", "default\npattern 11 1\ndefault\npattern 11 1\n", 11),
        ("obs-initial: t0", "obs-initial: t0\nobs-trans: t0 s1 t0\nobs-trans: t0 s1 t0", 8),
        ("pattern 11 1\ndefault", "pattern 0b11 1\ndefault", 8),
        ("pattern 11 1\ndefault", "pattern +1 1\ndefault", 8),
        ("pattern 11 1\ndefault", "pattern 1_1 1\ndefault", 8),
        ("pattern 11 1\ndefault", "pattern 011 1\ndefault", 8),
        ("pattern 11 1\ndefault", "pattern 1 1\ndefault", 8),
        ("pattern 11 1\ndefault", "pattern - 1\ndefault", 8),
        ("obs-classes: 1", "obs-classes: 1\nobs-classes: 1", 6),
        ("obs-initial: t0", "obs-initial: t0\nobs-initial: t0", 7),
        ("class t0", "class t+0", 7),
        ("class t0", "class tt0", 7),
        ("class t0", "class t00", 7),
        ("class t0", "class 0", 7),
        ("class t0", "class t\u0660", 7),
        ("obs-initial: t0", "obs-initial: +0", 6),
        ("obs-initial: t0", "obs-initial: 0", 6),
        ("obs-classes: 1", "obs-classes: 0_1", 5),
        ("obs-classes: 1", "obs-classes: t1", 5),
        ("obs-classes: 1", "obs-classes: 01", 5),
        ("obs-initial: t0", "obs-initial: t0\nobs-trans: 0 s1 t0", 7),
        ("controllable: s1 s2", "controllable: s1 s2 s1", 1),
        ("uncontrollable: s3 s4 s5", "uncontrollable: s3 s4 s5 s2", 2),
        ("observable: s1 s2 s3", "observable: s1 s2 s3 zz", 3),
        ("unobservable: s4 s5", "unobservable: s4 s5 zz", 4),
        ("unobservable: s4 s5", "unobservable: s4 s5 s3", 4),
        ("pattern 11 1\ndefault\npattern 11 1", "pattern 11 1/0\ndefault\npattern 11 1/0", 8),
        ("obs-initial: t0", "obs-initial: t0\nobs-trans: t0 s1 t9\nobs-trans: t0 s2 t9", 7),
        ("class t0", "class t0 junk", 7),
        ("default\npattern", "default 1 1\npattern", 9),
    ])
    def test_exit_2_with_line(self, robot_files, tmp_path, capsys, old, new, line):
        g, _ = robot_files
        assert old in ROBOT_MAP
        bad = tmp_path / "bad.map"
        bad.write_text(ROBOT_MAP.replace(old, new, 1))
        rc = main(["simulate", "--plant", g, "--supervisor", str(bad),
                   "--trials", "10", "--depth", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"line {line}:" in err
        assert "Traceback" not in err

    def test_valid_map_simulates(self, robot_files, tmp_path):
        g, _ = robot_files
        good = tmp_path / "good.map"
        good.write_text(ROBOT_MAP)
        assert main(["simulate", "--plant", g, "--supervisor", str(good),
                     "--trials", "10", "--depth", "2"]) == 0

    def test_directive_glued_to_its_colon(self, robot_files, tmp_path, capsys):
        g, _ = robot_files
        reports = []
        for text in (ROBOT_MAP, ROBOT_MAP.replace("obs-classes: 1", "obs-classes:1").replace(
                "obs-initial: t0", "obs-initial:t0")):
            path = tmp_path / "sp.map"
            path.write_text(text)
            assert main(["simulate", "--plant", g, "--supervisor", str(path),
                         "--trials", "200", "--depth", "3", "--seed", "4"]) == 0
            reports.append(capsys.readouterr().out)
        assert "obs-classes:1\nobs-initial:t0\n" in text
        assert reports[0] == reports[1] and reports[0].startswith("string\tcount")

    def test_missing_supervisor_file(self, robot_files, tmp_path, capsys):
        g, _ = robot_files
        rc = main(["simulate", "--plant", g, "--supervisor", str(tmp_path / "nope.map"),
                   "--trials", "10", "--depth", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "cannot read" in err and "nope.map" in err
        assert "Traceback" not in err


class TestUtilityCommands:
    def test_product_self(self, robot_files, capsys):
        g, _ = robot_files
        assert main(["product", g, g]) == 0
        parsed = loads_automaton(capsys.readouterr().out)
        from pdesctl import language_equivalent

        assert language_equivalent(parsed, robot_plant())

    def test_observer(self, robot_files, capsys):
        g, _ = robot_files
        assert main(["observer", g]) == 0
        assert capsys.readouterr().out == (
            "states: t0 t1\ninitial: t0\ncontrollable: s1 s2\nuncontrollable: s3\n"
            "observable: s1 s2 s3\nunobservable: \n"
            "trans: t0 s1 t0 1\ntrans: t0 s2 t0 1\ntrans: t0 s3 t1 1\n"
            "trans: t1 s1 t0 1\ntrans: t1 s2 t0 1\n"
        )

    def test_eval(self, robot_files, capsys):
        g, _ = robot_files
        assert main(["eval", g, "s3 s1", "s1"]) == 0
        out = capsys.readouterr().out
        assert "s3,s1\t1/8" in out
        assert "s1\t0" in out


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 with a message."""

    @pytest.mark.parametrize("command", [
        ["synthesize", "{g}", "{h}", "--scaling-out", "{bad}", "--supervisor-out", "{ok}"],
        ["synthesize", "{g}", "{h}", "--scaling-out", "{ok}", "--supervisor-out", "{bad}"],
        ["inf-pco", "{g}", "{h}", "--out", "{bad}"],
        ["product", "{g}", "{h}", "--out", "{bad}"],
        ["observer", "{g}", "--out", "{bad}"],
    ])
    def test_exit_2(self, robot_files, tmp_path, capsys, command):
        g, h = robot_files
        bad = str(tmp_path / "missing" / "out.txt")
        argv = [a.format(g=g, h=h, bad=bad, ok=str(tmp_path / "ok.map")) for a in command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"cannot write {bad}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad_flag", ["--scaling-out", "--supervisor-out"])
    def test_synthesize_writes_both_maps_or_neither(self, robot_files, tmp_path, capsys, bad_flag):
        g, h = robot_files
        bad = str(tmp_path / "missing" / "out.map")
        maps = {"--scaling-out": str(tmp_path / "k.map"), "--supervisor-out": str(tmp_path / "sp.map")}
        maps[bad_flag] = bad
        assert main(["synthesize", g, h, *sum(maps.items(), ())]) == 2
        assert capsys.readouterr().err == f"error: cannot write {bad}: No such file or directory\n"
        assert not any(map(os.path.exists, maps.values()))


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2

    def test_other_package_error_is_2(self, tmp_path, capsys):
        # a PdesError that is neither a FormatError nor an InvariantError:
        # the branches plant and the robot spec have different alphabets
        g, h = write(tmp_path, "g.pda", branch_plant()), write(tmp_path, "h.pda", robot_spec())
        assert main(["inf-pco", g, h]) == 2
        assert capsys.readouterr() == ("", "error: operands must share one alphabet\n")

    def test_repeated_calls_share_nothing(self, tmp_path, capsys):
        """One process, several commands: each call parses its own arguments."""
        g, h = write(tmp_path, "g.pda", robot_plant()), write(tmp_path, "h.pda", robot_spec())
        lg, lh = write(tmp_path, "lg.pda", loop_plant()), write(tmp_path, "lh.pda", loop_spec())
        assert main(["check-ctrl", g, h]) == 0
        assert main(["eval", g, "s3 s1"]) == 0
        assert main(["check-ctrl", lg, lh]) == 1
        with pytest.raises(SystemExit):
            main(["eval", g])
        assert main(["eval", g, "s1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "probabilistic controllability: HOLDS"
        assert out[1] == "s3,s1\t1/8"
        assert out[2] == "probabilistic controllability: FAILS"
        assert out[-1] == "s1\t0"


class TestNonUtf8Input:
    """A byte that is not UTF-8 exits 2 naming its line, as the parsers
    number lines (a CR LF is one line break)."""

    @pytest.mark.parametrize("command", [
        ["eval", "{bad}", "s1"],
        ["simulate", "--plant", "{g}", "--supervisor", "{bad}", "--trials", "1", "--depth", "1"],
    ])
    def test_exit_2_with_line(self, robot_files, tmp_path, capsys, command):
        g, _ = robot_files
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"# first\r\n\n# caf\xc3\xa9\n# \xff\n")
        assert main([a.format(g=g, bad=bad) for a in command]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: line 4: {bad} is not UTF-8: byte 0xff: invalid start byte\n"


class TestModuleEntryPoint:
    def run(self, *args):
        env = dict(os.environ, PYTHONPATH=str(SRC), PDES_COLOR="0")
        return subprocess.run([sys.executable, "-m", "pdesctl", *args],
                              capture_output=True, text=True, env=env)

    def test_runs_cli_main(self, robot_files):
        g, h = robot_files
        done = self.run("check-ctrl", g, h)
        assert done.returncode == 0
        assert done.stdout == "probabilistic controllability: HOLDS\n"

    def test_exit_codes(self, tmp_path):
        assert self.run().returncode == 2
        assert self.run("eval", str(tmp_path / "nope.pda"), "s1").returncode == 2
        (tmp_path / "bad.pda").write_bytes(b"states: a\n\xff\n")
        done = self.run("eval", str(tmp_path / "bad.pda"), "a")
        assert done.returncode == 2
        assert done.stderr.startswith("error: line 2: ") and "Traceback" not in done.stderr


# -- reference: the check-first `synthesize` ------------------------------
#
# `synthesize` as it was before it decided by synthesis: both checks run
# first (after the sublanguage check, since a spec that is not a
# sublanguage is reported alone), then `scaling_from_spec` walked the
# joint support three times
# (sublanguage check, access strings, observer of the product), with the
# classes that no observation tells apart then merged by brute force
# (`oracles.reference_quotient`).  The command must reproduce its exit
# code, output and map files exactly.


def reference_require_sublanguage(plant, spec):
    verdict = is_sublanguage(spec, plant)
    if not verdict:
        w = verdict.witness
        raise NotSublanguageError(
            f"specification is not a sublanguage of the plant at {w.strings[0]!r} on {w.event!r}", w
        )


def reference_scaling_from_spec(plant, spec):
    reference_require_sublanguage(plant, spec)
    alphabet = plant.alphabet
    initial = (plant.initial, spec.initial)
    access = {initial: ()}

    def successors(pair):
        rx, rq = plant._out[pair[0]], spec._out[pair[1]]
        for e in alphabet.events:
            if e in rx and e in rq:
                dst = (rx[e][0], rq[e][0])
                if dst not in access:
                    access[dst] = access[pair] + (e,)
                yield dst

    for x, q in explore([initial], successors):
        for e in alphabet.uncontrollable_events():
            rp, rs = plant.rho(x, e), spec.rho(q, e)
            if rp != rs:
                raise NotControllableError(
                    f"uncontrollable event {e!r} after {access[(x, q)]!r}: "
                    f"plant probability {rp} != spec probability {rs}",
                    Witness((access[(x, q)],), e, rp, rs),
                )
    prod = product(plant, spec)
    obs = observer(prod)
    vectors = {}
    for cls, cell in enumerate(obs.cells):
        factors = []
        for e in alphabet.controllable_events():
            ratio = first = None
            for x, q in sorted((prod.labels[i] for i in cell), key=access.__getitem__):
                if plant.step(x, e) is None:
                    continue
                rp, rs = plant.rho(x, e), spec.rho(q, e)
                if not (rp.is_ordinary and rs.is_ordinary):
                    raise InvariantError("synthesis requires ordinary probabilities")
                r = rs.magnitude / rp.magnitude
                if ratio is None:
                    ratio, first = r, (x, q)
                elif r != ratio:
                    raise NotObservableError(
                        f"event {e!r} demands factor {ratio} after {access[first]!r} "
                        f"but {r} after {access[(x, q)]!r}",
                        Witness(
                            (access[first], access[(x, q)]),
                            e,
                            plant.rho(first[0], e) * spec.rho(q, e),
                            rp * spec.rho(first[1], e),
                        ),
                    )
            factors.append(ratio if ratio is not None else F(0))
        vectors[cls] = tuple(factors) + (F(1),) * (alphabet.n - alphabet.m)
    classes = ObservationClasses(alphabet, obs.initial, len(obs.cells), obs.trans)
    return reference_quotient(ScalingMap(classes, vectors))


def reference_cmd_synthesize(args):
    plant = cli._load(args.plant)
    spec = cli._load(args.spec)
    try:  # inf-pco rejects a spec that is not a sublanguage: it is not checked
        reference_require_sublanguage(plant, spec)
    except NotSublanguageError as e:
        print(f"synthesis failed: {e}")
        return 1
    ctrl = check_controllable(plant, spec)
    obs = check_observable(plant, spec)
    if not ctrl or not obs:
        if not ctrl:
            cli._print_verdict("probabilistic controllability", ctrl)
        if not obs:
            cli._print_verdict("probabilistic observability", obs)
        print("specification is not achievable; consider inf-pco for the closest superlanguage")
        return 1
    try:
        scaling = reference_scaling_from_spec(plant, spec)
    except SynthesisError as e:
        print(f"synthesis failed: {e}")
        return 1
    cli._write(args.scaling_out, dumps_scaling_map(scaling))
    cli._write(args.supervisor_out, dumps_supervisor_map(supervisor_from_scaling(scaling)))
    print(f"scaling map written to {args.scaling_out}")
    print(f"supervisor written to {args.supervisor_out}")
    return 0


class ReferenceParser:
    """Parses as the CLI does, but runs `synthesize` by the reference."""

    parser = cli.build_parser()

    def parse_args(self, argv):
        args = self.parser.parse_args(argv)
        args.func = reference_cmd_synthesize
        return args


def outcome(code, out, err):
    if code == 0:
        return "achievable"
    for kind, prefix in [("ctrl-fails", "probabilistic controllability: FAILS"),
                         ("obs-fails", "probabilistic observability: FAILS"),
                         ("not-sublanguage", "synthesis failed: specification is not a sublanguage"),
                         ("strict-ctrl", "synthesis failed: uncontrollable event"),
                         ("not-ordinary", "")]:
        if out.startswith(prefix) and (prefix or "ordinary" in err):
            return kind
    return "other"


class TestSynthesizeReference:
    def test_matches_check_first_reference(self, tmp_path, capsys, monkeypatch):
        rng = random.Random(307)
        g, h = tmp_path / "g.pda", tmp_path / "h.pda"
        maps = [tmp_path / "k.map", tmp_path / "sp.map"]
        argv = ["synthesize", str(g), str(h), "--scaling-out", str(maps[0]), "--supervisor-out", str(maps[1])]

        def run(parser):
            for path in maps:
                path.unlink(missing_ok=True)
            monkeypatch.setattr(cli, "_PARSER", parser)
            code = main(argv)
            out, err = capsys.readouterr()
            return code, out, err, [path.read_bytes() if path.exists() else None for path in maps]

        seen = collections.Counter()
        for i in range(650):
            plant, spec = synthesis_pair(rng, i)
            g.write_text(dumps_automaton(plant.canonical_names()))
            h.write_text(dumps_automaton(spec.canonical_names("q")))
            expected = run(ReferenceParser())
            assert run(cli.build_parser()) == expected, (i, expected)
            seen[outcome(*expected[:3])] += 1
            seen["eps"] += plant.has_eps_probabilities() or spec.has_eps_probabilities()
        assert seen["other"] == 0, seen
        del seen["other"]
        assert len(seen) == 7 and min(seen.values()) >= 20, seen

    def test_scaling_matches_reference(self):
        """The same map, or the same error with the same witness, also
        where the CLI prints the checks' verdicts instead.  Besides the
        `synthesis_pair`s, `wild_pair`s bring infinitesimal plant edges
        (also at the spec's degree) and spec edges the plant lacks."""

        def result(synthesize, plant, spec):
            try:
                return dumps_scaling_map(synthesize(plant, spec))
            except (SynthesisError, InvariantError) as e:
                return type(e), str(e), getattr(e, "witness", None)

        rng = random.Random(317)
        sources = {
            "synthesis": (synthesis_pair(rng, i) for i in range(1000)),
            "wild": (wild_pair(rng) for _ in range(3000)),
        }
        merged = collections.Counter()  # maps with fewer classes than the observer has cells
        for source, pairs in sources.items():
            seen = collections.Counter()
            for i, (plant, spec) in enumerate(pairs):
                expected = result(reference_scaling_from_spec, plant, spec)
                assert result(scaling_from_spec, plant, spec) == expected, (source, i)
                seen[expected[0] if isinstance(expected, tuple) else "map"] += 1
                if not isinstance(expected, tuple):
                    merged[source] += loads_scaling_map(expected).classes.count < observer(product(plant, spec)).count
            assert len(seen) == 5 and min(seen.values()) >= 20, (source, seen)
        assert merged["synthesis"] >= 80, merged
