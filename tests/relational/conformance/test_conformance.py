"""Run the driver-conformance kit against the engine's driver.

The ``driver`` fixture (``tests/conftest.py``) lists the engine drivers
under test — sqlite's, the one engine — and each test runs once per
driver. One test per kit check keeps failures addressable ("sqlite
fails stop-under-load", not "sqlite fails conformance").
"""

from __future__ import annotations

from tests.relational.conformance.kit import DriverConformanceKit


def test_executemany_insert(driver):
    DriverConformanceKit(driver).check_executemany_insert()


def test_type_fidelity(driver):
    DriverConformanceKit(driver).check_type_fidelity()


def test_placeholder_roundtrip(driver):
    DriverConformanceKit(driver).check_placeholder_roundtrip()


def test_rows_are_tuples(driver):
    DriverConformanceKit(driver).check_rows_are_tuples()


def test_run_sql_binding(driver):
    DriverConformanceKit(driver).check_run_sql_binding()


def test_read_only_enforcement(driver):
    DriverConformanceKit(driver).check_read_only_enforcement()


def test_read_refuses_writes(driver):
    DriverConformanceKit(driver).check_read_refuses_writes()


def test_sessions_read_the_source(driver):
    DriverConformanceKit(driver).check_sessions_read_the_source()


def test_stop_under_load(driver):
    DriverConformanceKit(driver).check_stop_under_load()


def test_change_capture(driver):
    DriverConformanceKit(driver).check_change_capture()


def test_error_taxonomy(driver):
    DriverConformanceKit(driver).check_error_taxonomy()


def test_kit_covers_every_check(driver):
    """The ALL manifest and this module agree — adding a check without a
    test (or vice versa) fails here."""
    import sys

    module = sys.modules[__name__]
    listed = {name.replace("check_", "test_") for name in
              DriverConformanceKit.ALL}
    present = {name for name in vars(module) if name.startswith("test_")}
    assert listed <= present, listed - present
