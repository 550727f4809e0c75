"""Scheme definitions (Section VI-C)."""

import pytest

from repro.common.errors import ReproError
from repro.core.ordering import LoggingMode
from repro.core.schemes import (
    ATOM,
    EDE,
    FG,
    FG_LG,
    FG_LZ,
    SCHEMES,
    SLPMT,
    SLPMT_LINE,
    Scheme,
    scheme_by_name,
)


class TestEvaluatedSchemes:
    def test_fg_disables_both_features(self):
        assert not FG.honor_log_free
        assert not FG.honor_lazy
        assert FG.coalescing
        assert FG.log_granularity == "word"

    def test_breakdown_schemes(self):
        assert FG_LG.honor_log_free and not FG_LG.honor_lazy
        assert FG_LZ.honor_lazy and not FG_LZ.honor_log_free

    def test_slpmt_full(self):
        assert SLPMT.honor_log_free and SLPMT.honor_lazy

    def test_atom_logs_lines(self):
        assert ATOM.log_granularity == "line"
        assert ATOM.coalescing
        assert not (ATOM.honor_log_free or ATOM.honor_lazy)

    def test_ede_has_no_coalescing_buffer(self):
        assert not EDE.coalescing
        assert EDE.log_granularity == "word"
        assert not (EDE.honor_log_free or EDE.honor_lazy)

    def test_line_variant(self):
        assert SLPMT_LINE.log_granularity == "line"
        assert SLPMT_LINE.honor_log_free and SLPMT_LINE.honor_lazy


class TestLookup:
    def test_by_name(self):
        assert scheme_by_name("SLPMT") is SLPMT
        assert scheme_by_name("FG+LG") is FG_LG

    def test_unknown_rejected(self):
        with pytest.raises(ReproError):
            scheme_by_name("bogus")

    def test_registry_is_consistent(self):
        for name, scheme in SCHEMES.items():
            assert scheme.name == name


class TestConstruction:
    def test_bad_granularity_rejected(self):
        with pytest.raises(ReproError):
            Scheme(name="x", log_granularity="nibble")

    def test_with_logging_mode(self):
        redo = FG.with_logging_mode(LoggingMode.REDO)
        assert redo.logging_mode is LoggingMode.REDO
        assert FG.logging_mode is LoggingMode.UNDO
