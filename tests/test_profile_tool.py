"""``make profile`` (tools/profile_sat.py) on a suite query."""

import importlib.util
import os

_SPEC = importlib.util.spec_from_file_location(
    "profile_sat",
    os.path.join(
        os.path.dirname(os.path.dirname(__file__)),
        "tools",
        "profile_sat.py",
    ),
)
profile_sat = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(profile_sat)


def test_suite_query_profiles_every_stage(capsys):
    assert profile_sat.main(["driver_s3_1", "--limit", "5"]) == 0
    out = capsys.readouterr().out
    assert "status:" in out
    assert "\n  encode " in out


def test_suite_query_rejects_cube(capsys):
    assert profile_sat.main(["driver_s3_1", "--cube"]) == 2
    assert "--cube" in capsys.readouterr().err


def test_cnf_instance_still_profiles(capsys):
    assert profile_sat.main(["php_4_3", "--limit", "3"]) == 0
    assert "arena on php_4_3: UNSAT" in capsys.readouterr().out
