"""Tests for JSON serialisation and the CLI."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import Instance, validate
from repro.__main__ import main
from repro.approx.nonpreemptive import solve_nonpreemptive
from repro.approx.preemptive import solve_preemptive
from repro.approx.splittable import solve_splittable
from repro.io import (dump_instance, instance_from_dict, instance_to_dict,
                      load_instance, schedule_from_dict, schedule_to_dict)
from repro.workloads import uniform_instance


class TestInstanceRoundtrip:
    def test_dict_roundtrip_preserves_labels(self):
        inst = Instance.create([3, 4], ["a", "b"], 2, 1)
        d = instance_to_dict(inst)
        assert d["classes"] == ["a", "b"]
        back = instance_from_dict(d)
        assert back == inst

    def test_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        inst = uniform_instance(rng, 10, 3, 2, 2)
        path = tmp_path / "inst.json"
        dump_instance(inst, str(path))
        assert load_instance(str(path)) == inst


class TestScheduleRoundtrip:
    @pytest.fixture
    def inst(self):
        rng = np.random.default_rng(1)
        return uniform_instance(rng, 10, 3, 2, 2)

    def test_nonpreemptive(self, inst):
        sched = solve_nonpreemptive(inst).schedule
        back = schedule_from_dict(schedule_to_dict(sched))
        assert back.assignment == sched.assignment
        validate(inst, back)

    def test_splittable_exact_fractions(self, inst):
        sched = solve_splittable(inst).schedule
        back = schedule_from_dict(schedule_to_dict(sched))
        assert validate(inst, back) == sched.makespan()

    def test_preemptive_with_starts(self, inst):
        sched = solve_preemptive(inst).schedule
        d = schedule_to_dict(sched)
        back = schedule_from_dict(d)
        assert validate(inst, back) == sched.makespan()

    def test_fraction_encoding(self):
        from repro.core.schedule import SplittableSchedule
        s = SplittableSchedule(1)
        s.assign(0, 0, Fraction(7, 3))
        d = schedule_to_dict(s)
        assert d["machines"]["0"][0]["amount"] == "7/3"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            schedule_from_dict({"kind": "nonsense"})


class TestCLI:
    def test_generate_solve_bounds(self, tmp_path, capsys):
        inst_path = str(tmp_path / "inst.json")
        assert main(["generate", "--kind", "uniform", "--n", "20",
                     "--classes", "4", "--machines", "3", "--slots", "2",
                     "--seed", "3", "-o", inst_path]) == 0
        out_path = str(tmp_path / "sched.json")
        assert main(["solve", inst_path, "--algorithm", "nonpreemptive",
                     "-o", out_path]) == 0
        sched = schedule_from_dict(json.load(open(out_path)))
        inst = load_instance(inst_path)
        validate(inst, sched)
        assert main(["bounds", inst_path]) == 0
        captured = capsys.readouterr()
        assert "splittable LB" in captured.out

    def test_solve_emit_stdout(self, tmp_path, capsys):
        inst_path = str(tmp_path / "i.json")
        main(["generate", "--n", "10", "--classes", "3", "--machines", "2",
              "--slots", "2", "-o", inst_path])
        assert main(["solve", inst_path, "--algorithm", "splittable",
                     "--emit"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["kind"] == "splittable"

    def test_ptas_via_cli(self, tmp_path):
        inst_path = str(tmp_path / "i.json")
        main(["generate", "--n", "10", "--classes", "3", "--machines", "2",
              "--slots", "2", "-o", inst_path])
        assert main(["solve", inst_path, "--algorithm", "ptas-nonpreemptive",
                     "--delta", "2"]) == 0


class TestLeaseSecondsCLI:
    @pytest.mark.parametrize("argv", [["serve", "--port", "0"],
                                      ["worker", "--store", "memory://"]],
                             ids=["serve", "worker"])
    def test_zero_lease_exits_with_an_error_line(self, tmp_path, argv):
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv, "--lease-seconds", "0"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert any("error:" in line and "--lease-seconds" in line
                   for line in proc.stderr.splitlines()), proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []   # no store was opened
