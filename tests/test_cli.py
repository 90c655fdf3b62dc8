"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import COMMANDS, main


class TestDispatch:
    def test_help(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "demo" in out
        assert main(["--help"]) == 0

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "start = 13" in out
        assert "AM    = [3, 12, 15, 12, 3, 12, 3, 12]" in out

    def test_command_table_complete(self):
        assert set(COMMANDS) == {
            "table1", "figure7", "table2", "ablations", "opcounts", "claims",
            "costs", "table2c", "table1c", "trace", "profile",
        }

    def test_costs_smoke(self, capsys):
        assert main(["costs", "--n", "256"]) == 0
        out = capsys.readouterr().out
        assert "hypercube" in out and "transpose" in out.lower()

    def test_opcounts_forwarding(self, capsys):
        assert main(["opcounts", "--stride", "7"]) == 0
        out = capsys.readouterr().out
        assert "s=7" in out


class TestClaimsHarness:
    def test_claims_structure(self):
        from repro.bench.claims import (
            run_lower_bound_claim,
            run_processor_claim,
            spread,
        )

        rows = run_lower_bound_claim(p=4, k=8, s=9, repeats=1)
        assert [l for l, _ in rows][0] == 0
        assert spread(rows) >= 1.0
        rows = run_processor_claim(k=8, s=9, repeats=1)
        assert all(t > 0 for _, t in rows)
