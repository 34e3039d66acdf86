from fractions import Fraction as F

import pytest

from susypv.painleve import PVSolution
from susypv.tables import (
    PERMUTATION_PARAMS,
    ksusy_exact_params,
    params_table_report,
    quartet_exact_params,
    reproduce_table,
    table_param_entries,
    table_quartet,
)


class TestCallBudget:
    def test_w_evaluated_once_per_row_and_point(self, monkeypatch):
        # t1 at l = 1 has two generic rows (1423, 2413): one batched w
        # evaluation each, over the whole grid; the printed and derived
        # cells are compared on the certificate's own samples
        calls = []
        w_grid = PVSolution.w_grid

        def counted(self, zs):
            calls.append(len(zs))
            return w_grid(self, zs)

        monkeypatch.setattr(PVSolution, "w_grid", counted)
        reproduce_table("t1", 1.0, n_points=25)
        assert calls == [25, 25]


class TestExactParams:
    def test_published_permutation_rows_except_2314(self):
        rows = dict((lab, ok) for lab, ok, _ in params_table_report())
        for lab in ("1234", "1324", "1423", "2413", "3412"):
            assert rows[lab], lab

    def test_2314_published_entry_is_off_by_two(self):
        # the published 4c for the 2314 ordering reads -2l-2k-1; the alpha
        # route (and the same table's own k=1 and k=2 specializations,
        # -2l-5 and -2l-7) give -2l-2k-3
        ell, eps = F(1), F(-1, 2)
        for k in (1, 2, 3):
            pub = PERMUTATION_PARAMS("2314", ell, eps, k)
            got = ksusy_exact_params("2314", ell, eps, k)
            assert pub[0] == got[0] and pub[1] == got[1]
            assert got[2] == -2 * ell - 2 * k - 3
            assert pub[2] - got[2] == 2

    def test_2314_specializations_match_k_tables(self):
        # Table-1/Table-2 2314 entries agree with the alpha route
        ell = F(2)
        ez = ell / 2 + F(3, 4)
        t1 = table_param_entries("t1", ell)["2314"]
        got1 = quartet_exact_params("2314", [ez + 1, 1 - ez, ez, ez])
        assert tuple(t1) == tuple(got1)
        t2 = table_param_entries("t2", ell)["2314"]
        got2 = quartet_exact_params("2314", [ez + 2, 1 - ez, ez, ez])
        assert tuple(t2) == tuple(got2)


class TestTableReproduction:
    @pytest.mark.parametrize("which", ["t0", "t1", "t2"])
    @pytest.mark.parametrize("ell", [1.0, 2.0])
    def test_params_exact_all_rows(self, which, ell):
        rep = reproduce_table(which, ell, n_points=25)
        for row in rep.rows:
            assert row.params_exact, (which, ell, row.label)

    def test_t1_1423_matches_published_cell(self):
        for ell in (0.0, 1.0, 2.0):
            rep = reproduce_table("t1", ell, n_points=40)
            row = {r.label: r for r in rep.rows}["1423"]
            assert row.w_status == "matched"
            assert row.w_error_paper <= 1e-9

    def test_t1_2413_machinery_form(self):
        # published cell holds only at l=0; the derived (residual-
        # certified) closed form 2/(z-2l-1) holds at every l
        rep0 = reproduce_table("t1", 0.0, n_points=40)
        row0 = {r.label: r for r in rep0.rows}["2413"]
        assert row0.w_error_paper <= 1e-9  # published cell is fine at l=0
        for ell in (1.0, 2.0):
            rep = reproduce_table("t1", ell, n_points=40)
            row = {r.label: r for r in rep.rows}["2413"]
            assert row.w_error_derived <= 1e-9
            assert row.w_error_paper > 1e-2
            assert row.machinery_residual <= 1e-8

    def test_t2_swapped_cells(self):
        # the two non-degenerate published k=2 cells are interchanged:
        # each machinery row matches the other row's published cell via
        # the derived forms, certified by residual
        for ell in (1.0, 2.0):
            rep = reproduce_table("t2", ell, n_points=40)
            rows = {r.label: r for r in rep.rows}
            for lab in ("1423", "2413"):
                assert rows[lab].w_error_derived <= 5e-9, (ell, lab)
                assert rows[lab].w_error_paper > 1e-2
                assert rows[lab].machinery_residual <= 1e-8

    def test_t0_residual_certified_rows(self):
        for ell in (1.0, 2.0):
            rep = reproduce_table("t0", ell, n_points=40)
            rows = {r.label: r for r in rep.rows}
            for lab in ("1324", "2314"):
                assert rows[lab].w_status == "residual-certified"
                assert rows[lab].machinery_residual <= 1e-8

    def test_t0_degenerates(self):
        rep = reproduce_table("t0", 1.5, n_points=25)
        rows = {r.label: r for r in rep.rows}
        assert rows["1234"].classification == "w==0-shift"
        assert rows["3412"].classification == "w==inf"

    def test_t1_degenerate_rows(self):
        rep = reproduce_table("t1", 1.0, n_points=25)
        rows = {r.label: r for r in rep.rows}
        for lab in ("1234", "1324", "2314"):
            assert rows[lab].classification == "w==1"

    def test_quartet_energies_exact(self):
        _, energies = table_quartet("t2", 1.0)
        ez = F(1, 2) + F(3, 4)
        assert energies == [ez + 2, 1 - ez, ez, ez]
