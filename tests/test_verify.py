import numpy as np

import groupanon.signals
from groupanon.verify import format_table, has_failures, verify_reference_values
from groupanon.wavelet import FILTERS, WaveletDecomposition

#: Every row of the table, in order, with its tolerance.
ROWS = [
    ("quantity level-2 approx coefficients", 1e-3),
    ("quantity level-2 detail coefficients", 1e-3),
    ("quantity approximation component", 1e-3),
    ("quantity detail component", 1e-3),
    ("quantity constraint-system coefficients", 1e-3),
    ("quantity solution satisfies its system", 1e-9),
    ("quantity new approximation component", 1e-2),
    ("quantity reassembled signal", 1e-2),
    ("quantity final rounded signal", 1.0),
    ("concentration level-2 approx coefficients", 1e-3),
    ("concentration level-2 detail coefficients", 1e-3),
    ("concentration approximation component", 1e-3),
    ("concentration detail component", 1e-3),
    ("concentration constraint-system coefficients", 1e-3),
    ("concentration solution vs its system", 0.0),
    ("concentration new approximation component", 1e-3),
    ("concentration reassembled signal", 1e-3),
    ("concentration shifted signal", 1e-3),
    ("fixture microfile group counts", 0.0),
]


def orthonormal_lowpass(theta: float) -> np.ndarray:
    """Four orthonormal low-pass taps; theta = pi/3 gives db2."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([1 - c + s, 1 + c + s, 1 + c - s, 1 - c - s])[::-1] / (2 * np.sqrt(2))


def failed(rows) -> list[str]:
    return [row.name for row in rows if row.status == "FAIL"]


class TestVerify:
    def test_clean_build_has_no_failures(self):
        rows = verify_reference_values()
        assert not has_failures(rows)
        statuses = {row.status for row in rows}
        assert statuses == {"PASS", "KNOWN"}
        known = [row for row in rows if row.status == "KNOWN"]
        assert len(known) == 1
        assert "position-5" in known[0].detail

    def test_perturbed_filter_fails_with_reported_delta(self):
        # within 4.8e-4 of db2 and still an orthonormal pair, so a run could use it
        taps = orthonormal_lowpass(np.pi / 3 + 1e-3)
        rows = verify_reference_values(lowpass=taps)
        assert has_failures(rows)
        approx = next(r for r in rows if r.name == "quantity level-2 approx coefficients")
        assert approx.status == "FAIL"
        assert approx.max_delta > 1e-3

    def test_wrong_family_fails_loudly(self):
        rows = verify_reference_values(lowpass=FILTERS["haar"].lowpass)
        failed = [r for r in rows if r.status == "FAIL"]
        assert len(failed) > 5

    def test_missing_fixture_reported_as_such(self, tmp_path):
        rows = verify_reference_values(fixture_csv=tmp_path / "nope.csv")
        fixture_row = next(r for r in rows if "fixture" in r.name)
        assert fixture_row.status == "FAIL"
        assert fixture_row.detail == "fixture missing"

    def test_table_renders_every_row(self):
        rows = verify_reference_values()
        table = format_table(rows)
        for row in rows:
            assert row.name in table
        assert "known discrepancy" in table

    def test_rows_names_order_and_tolerances(self):
        rows = verify_reference_values()
        assert [(row.name, row.tolerance) for row in rows] == ROWS

    def test_run_rounding_is_what_the_final_row_checks(self, monkeypatch):
        real = groupanon.signals.round_to_integers

        def moved(values, total):
            counts = real(values, total)
            counts[:3] += [1, -1, 1]
            return counts

        monkeypatch.setattr(groupanon.signals, "round_to_integers", moved)
        assert failed(verify_reference_values()) == ["quantity final rounded signal"]

    def test_run_reconstruction_matrix_is_what_the_rows_read(self, monkeypatch):
        csr = WaveletDecomposition.__dict__["reconstruction_csr"].func
        monkeypatch.setattr(WaveletDecomposition, "reconstruction_csr",
                            property(lambda dec: csr(dec) * 1.01))
        fails = failed(verify_reference_values())
        for name in ("quantity constraint-system coefficients",
                     "concentration constraint-system coefficients",
                     "quantity reassembled signal"):
            assert name in fails
