import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pdesctl import dumps_automaton, loads_automaton, loads_scaling_map, loads_supervisor_map
from pdesctl.cli import main
from conftest import branch_plant, branch_spec, loop_plant, loop_spec, robot_plant, robot_spec

F = Fraction
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
    return write(tmp_path, "g.pda", robot_plant()), write(tmp_path, "h.pda", robot_spec())


@pytest.fixture
def loop_files(tmp_path):
    return write(tmp_path, "g.pda", loop_plant()), write(tmp_path, "h.pda", loop_spec())


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
        assert any(d.probs == (F(0), F(0), F(1, 5), F(4, 5)) for d in sup.dists.values())

    def test_unachievable_spec_reports_and_fails(self, loop_files, tmp_path, capsys):
        g, h = loop_files
        rc = main(["synthesize", g, h,
                   "--scaling-out", str(tmp_path / "k.map"),
                   "--supervisor-out", str(tmp_path / "sp.map")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "inf-pco" in out
        assert not (tmp_path / "k.map").exists()


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

    def test_non_sublanguage_is_failure(self, loop_files):
        g, h = loop_files
        assert main(["inf-pco", h, g]) == 1


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
        ("pattern 11 1\ndefault", "pattern 11 1/2\npattern 11 1/2\ndefault", 9),
        ("pattern 11 1\ndefault", "pattern 11 1\nclass t0\npattern 11 1\ndefault", 9),
        ("default\npattern 11 1\n", "default\npattern 11 1\ndefault\npattern 11 1\n", 11),
        ("obs-initial: t0", "obs-initial: t0\nobs-trans: t0 s1 t0\nobs-trans: t0 s1 t0", 8),
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
        out = capsys.readouterr().out
        assert "initial: t0" in out

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


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2

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
