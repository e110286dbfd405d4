import json
import os

import pytest

from braidorbit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_orbit_command(capsys):
    code, out = run(
        capsys,
        "orbit",
        "--lambda",
        "z12,z12^5,z12^3,z12^3",
        "--tau",
        "z12^3,0,0",
        "--bound",
        "100",
    )
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 4
    assert data["tau_n"] == "1"
    assert not data["exceeded_bound"]
    assert len(data["points"]) == 4


def test_orbit_readme_example_points(capsys):
    # the README's tetrahedral example: rendering and discovery order are pinned
    code, out = run(
        capsys, "orbit", "--lambda", "z12,z12^5,z12^3,z12^3", "--tau", "z12^3,0,0"
    )
    assert code == 0
    assert json.loads(out)["points"] == [
        "[1 : 2 - z12 - z12^2 + z12^3]",
        "[1 : -1 + 2*z12 - z12^3]",
        "[1 : 0]",
        "[1 : 1 + z12 - z12^2]",
    ]


def test_orbit_zero_class(capsys):
    code, out = run(
        capsys,
        "orbit",
        "--lambda",
        "z12,z12^5,z12^3,z12^3",
        "--tau",
        "1 - z12,1 - z12^5,1 - z12^3",
    )
    data = json.loads(out)
    assert code == 0 and data["size"] == 1 and data["points"] == ["[0]"]


def test_orbit_json_input(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(
        json.dumps({"n": 4, "lambda": ["z12", "z12^5", "z12^3", "z12^3"], "tau": ["z12^3", "0", "0"]})
    )
    code, out = run(capsys, "orbit", "--input", str(path))
    assert code == 0
    assert json.loads(out)["size"] == 4


@pytest.mark.parametrize(
    "command", [["orbit"], ["gate"], ["coalesce", "--n", "4", "--k", "1", "--l", "2"]]
)
@pytest.mark.parametrize(
    "payload, message",
    [
        ({"lambda": ["z12", "z12^5", "z12^3", "z12^3"]}, "missing key 'tau'"),
        ({"tau": ["z12^3", "0", "0"]}, "missing key 'lambda'"),
        (["z12", "z12^5"], "expected a JSON object"),
        ({"lambda": "z12", "tau": ["0"]}, "'lambda' must be a list"),
        ({"lambda": ["z12", 5], "tau": ["0"]}, "'lambda' must be a list"),
    ],
)
def test_bad_json_input_is_an_error(tmp_path, capsys, command, payload, message):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(payload))
    code = main([*command, "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_orbit_without_values_is_an_error(capsys):
    assert main(["orbit", "--lambda", "z12,z12^5,z12^3,z12^3"]) == 2
    assert "--tau" in capsys.readouterr().err


def test_kernel_overflow_is_an_error(capsys):
    code = main(["strata", "--which", "g25", "--point", "[100000000000000000000:1:0]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "100000000000000000000" in captured.err


def test_classify4_command(capsys):
    code, out = run(capsys, "classify4", "--lambda", "z12,z12^5,z12^3,z12^3")
    data = json.loads(out)
    assert code == 0
    assert data["tag"] == "tetrahedral"
    assert data["p_value"] == "2"
    assert data["table"]["generic_size"] == 12


def test_gate_command(capsys):
    code, out = run(capsys, "gate", "--lambda", "z4,1,1,1,1,z4^-1", "--tau", "0,1,1,1,0")
    data = json.loads(out)
    assert code == 0
    assert data["verdict"] == "finite" and data["size"] == 16


def test_group_command(capsys):
    code, out = run(capsys, "group", "--which", "g25")
    data = json.loads(out)
    assert code == 0
    assert data["order"] == 648
    assert data["reflections"] == 24
    assert data["hyperplanes"] == 12
    assert data["degrees_product_equals_order"]


def test_strata_command(capsys):
    code, out = run(capsys, "strata", "--which", "g25", "--point", "[1:-1:0]")
    data = json.loads(out)
    assert code == 0
    assert data["orbit_size"] == 9
    assert data["reflection_hyperplanes"] == 4


def test_lattice_command(capsys):
    code, out = run(capsys, "lattice", "--which", "g25")
    data = json.loads(out)
    assert code == 0
    assert data["codim2_incidences"] == {"2": 12, "4": 9}


def test_coalesce_command(capsys):
    code, out = run(
        capsys,
        "coalesce",
        "--n",
        "5",
        "--k",
        "4",
        "--l",
        "1",
        "--lambda",
        "z6,z6,z6,z6,z6^2",
        "--tau",
        "1,2,3,4",
    )
    data = json.loads(out)
    assert code == 0
    assert data["lambda"] == ["-1 + z6", "z6", "z6", "-1 + z6"]


def test_monodromy_command(capsys):
    code, out = run(
        capsys,
        "monodromy",
        "--theta",
        "1/6,1/6,1/6,1/6",
        "--poles=-0.7+0.3j,0,1",
        "--tol",
        "1e-6",
    )
    data = json.loads(out)
    assert code == 0
    assert data["closure_size"] == 648


def test_monodromy_rank4_needs_flag(capsys):
    with pytest.raises(SystemExit):
        main(
            [
                "monodromy",
                "--theta",
                "1/6,1/6,1/6,1/6,1/6",
                "--poles=-0.7+0.3j,2.1+0.4j,0,1",
            ]
        )


def test_tables_command(tmp_path, capsys):
    out_path = tmp_path / "t2.csv"
    code, out = run(capsys, "tables", "--which", "2", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "case-id,lambda,tau,expected_size,computed_size,status"
    sizes = [int(line.split(",")[-2]) for line in lines[1:]]
    assert sizes == [4, 4, 6, 12, 4, 4, 6, 12, 6, 8, 12, 24, 6, 8, 12, 24]
    assert all(line.endswith("PASS") for line in lines[1:])


def test_parse_error_exit_code(capsys):
    code = main(["classify4", "--lambda", "z12,++,z12^3,z12^3"])
    assert code == 2


def test_cli_deterministic(capsys):
    code1, out1 = run(capsys, "classify4", "--lambda", "z12,z12^5,z12^3,z12^3")
    code2, out2 = run(capsys, "classify4", "--lambda", "z12,z12^5,z12^3,z12^3")
    assert (code1, out1) == (code2, out2)


def test_tables_command_table4(tmp_path, capsys):
    out_path = tmp_path / "t4.csv"
    code, out = run(capsys, "tables", "--which", "4", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    sizes = [int(line.split(",")[-2]) for line in lines[1:]]
    assert sorted(sizes) == [9, 12, 36, 54, 72, 72, 108, 216]
    assert all(line.endswith("PASS") for line in lines[1:])
