"""The suite's own settings: a failing test is reported with all the rest.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error. When a
``hypothesis`` test fails, hypothesis imports ``libcst`` to print the failing
example, and that import warns about ``mypy_extensions.TypedDict``; unless the
settings ignore that one warning, pytest stops with an internal error and
exit code 3, and the tests after the failure never run.
"""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_is_reported_with_the_rest(pytester):
    pytester.makepyfile(
        test_mixed="""
            import warnings

            from hypothesis import given, strategies as st

            def test_passes():
                pass

            @given(st.integers())
            def test_fails(x):
                assert x < 0

            def test_deprecation_is_an_error():
                warnings.warn("old", DeprecationWarning)
        """,
        test_later="""
            def test_later():
                pass
        """,
    )
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider",
        "test_mixed.py", "test_later.py",
    )
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(passed=2, failed=2)
    assert result.ret == 1
