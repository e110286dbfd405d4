import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from braidorbit import cli, kernel, reflgrp
from braidorbit.charvar import AffineRep, LinearPart, ProjClass, normalize, orbit
from braidorbit.cli import main
from braidorbit.cyclo import cyc, parse_cyclo, render, zeta
from braidorbit.kernel import line_coords


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



def test_orbit_readme_large_output_pinned(capsys):
    # the README's 25920-point orbit: search order and every printed byte
    code, out = run(
        capsys, "orbit", "--lambda", "z6,z6,z6,z6,z6,z6", "--tau", "0,1,2,3,5"
    )
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "c08cfe9209e1ed3de2cea7fc766ea9536786f55cc734113ef6416e1bb531e9f2"
    )
    # the points themselves, whatever order the search finds them in
    points = sorted(
        line.strip().rstrip(",") for line in out.splitlines() if line.strip().startswith('"[')
    )
    assert len(points) == 25920
    assert (
        hashlib.sha256("\n".join(points).encode()).hexdigest()
        == "a2ab024d10e8e7e6bf2b5651d77d45c0678c7f68b87fd817ffc5994771c243dc"
    )


def _orbit_of(lams, tau, bound=200_000):
    rep = AffineRep(LinearPart(tuple(map(parse_cyclo, lams))), tuple(map(parse_cyclo, tau)))
    cls, rot = normalize(rep)
    return orbit(cls, rep.linear.rotated(rot) if rot else rep.linear, bound=bound)


@pytest.mark.parametrize(
    "res",
    [
        pytest.param(lambda: _orbit_of(["z12", "z12^5", "z12^3", "z12^3"], ["z12^3", "0", "0"]), id="z12"),
        pytest.param(lambda: _orbit_of(["z6"] * 4 + ["z6^2"], ["0", "1", "2", "5"]), id="z6"),
        pytest.param(
            lambda: orbit(
                ProjClass(4, (cyc(1), cyc(2))),
                LinearPart((zeta(60, 1), zeta(60, 29), zeta(60, 11), zeta(60, 19))),
            ),
            id="z60",
        ),
        pytest.param(lambda: _orbit_of(["10^9", "1/10^9", "1", "1"], ["0", "1", "2"], 60), id="long"),
    ],
)
def test_points_print_as_render_of_their_coordinates(res):
    # the orbit command prints each point from its canonical vector; the
    # reference renders every coordinate of the point's values
    res = res()
    assert res.vectors
    want = [
        "[" + " : ".join(map(render, line_coords(w, res.conductor))) + "]" for w in res.vectors
    ]
    assert cli._point_texts(res.vectors, res.conductor) == want

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


def test_kernel_overflow_is_an_error(capsys, g25):
    # strata and the stabilizer functions run on Python ints, so a huge
    # entry gets its exact stratum and stabilizer; the int64 blob format
    # refuses it with an error that names the value
    code, out = run(capsys, "strata", "--which", "g25", "--point", "[100000000000000000000:1:0]")
    data = json.loads(out)
    assert code == 0
    assert (data["orbit_size"], data["reflection_hyperplanes"], data["proper_planes"]) == (72, 1, 0)
    assert reflgrp.line_stabilizer_order(g25, (cyc(10**20), cyc(1), cyc(0))) == 9
    with pytest.raises(OverflowError, match="100000000000000000000"):
        kernel.to_blob_vector((10**20, 1, 0), 3)


def test_orbit_past_its_bound_prints_points_of_any_length(capsys):
    # the search passes its bound, and its last points have coordinates of
    # more digits than Python converts to text by default
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out = run(
        capsys, "orbit", "--lambda", "10^9,1/10^9,1,1", "--tau", "0,1,2", "--bound", "1000"
    )
    assert code == 0
    data = json.loads(out)
    assert (data["size"], data["exceeded_bound"], len(data["points"])) == (1001, True, 1001)
    assert max(len(p) for p in data["points"]) > 4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.parametrize(
    "argv",
    [
        ["gate", "--lambda", "10^5000,1/10^5000,1,1", "--tau", "0,1,2"],
        ["classify4", "--lambda", "10^5000,1/10^5000,1,1"],
        ["strata", "--which", "g25", "--point", "[10^5000:1:0]"],
    ],
    ids=lambda argv: argv[0],
)
def test_long_values_print_exactly(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert "1" + "0" * 5000 in out


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int <-> str limit before Python 3.11"
)
def test_long_input_literals_stay_refused(capsys):
    # the limit on int <-> str is lifted only while the output is written
    big = "1" + "0" * 5000
    code = main(["gate", "--lambda", f"{big},1/{big},1,1", "--tau", "0,1,2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "digits" in err


@pytest.mark.parametrize("point", ["[0:0:0]", "[1:2]"])
def test_strata_rejects_a_point_that_is_no_line(capsys, point):
    code = main(["strata", "--which", "g25", "--point", point])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


L4 = "z12,z12^5,z12^3,z12^3"
N5 = ["--lambda", "z6,z6,z6,z6,z6^2", "--tau", "1,2,3,4"]
THETA = ["--theta", "1/6,1/6,1/6,1/6"]
POLES = "--poles=-0.7+0.3j,0,1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["orbit", "--lambda", L4, "--tau", "z12^3,0"], "tau must have n-1 entries"),
        (["orbit", "--lambda", L4, "--tau", "z12^3,0,0", "--bound", "0"], "bound must be positive"),
        (["classify4", "--lambda", "z12,z12^5,z12^3"], "product of the linear part"),
        (["gate", "--lambda", "z4,1,1,1,1,z4^-1"], "--tau"),
        (["group", "--which", "g7"], "invalid choice"),
        (["strata", "--which", "g25", "--point", "[0:0:0]"], "spans no line"),
        (["lattice", "--which", "g7"], "invalid choice"),
        (["coalesce", "--n", "5", "--k", "9", "--l", "1", *N5], "3 <= k < n"),
        (["coalesce", "--n", "5", "--k", "4", "--l", "0", *N5], "1 <= ell <= k"),
        (["coalesce", "--n", "5", "--k", "4", "--l", "5", *N5], "1 <= ell <= k"),
        (["coalesce", "--n", "4", "--k", "3", "--l", "1", *N5], "--n disagree"),
        (["monodromy", *THETA, "--poles=nan,0,1"], "poles must be finite"),
        (["monodromy", *THETA, "--poles=inf,0,1"], "poles must be finite"),
        (["monodromy", *THETA, "--poles=0,1"], "need 3 poles"),
        (["monodromy", *THETA, "--poles=0,0,1"], "nearly coincide"),
        (["monodromy", *THETA, "--poles=0,2j,4j"], "to pole 2j passes through pole 0j"),
        (["monodromy", *THETA, POLES, "--local-tol", "0"], "local_tol must be positive"),
        (["monodromy", *THETA, POLES, "--local-tol", "-1"], "local_tol must be positive"),
        (["monodromy", *THETA, POLES, "--local-tol", "nan"], "local_tol must be positive"),
        (["monodromy", *THETA, POLES, "--local-tol", "inf"], "local_tol must be positive"),
        (["monodromy", *THETA, POLES, "--local-tol", "1e-18"], "below the rounding error"),
        (["monodromy", *THETA, POLES, "--bound", "0"], "bound must be positive"),
        (["tables", "--which", "9"], "numbered 1 to 5"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else None,
)
def test_bad_input_exits_2_with_an_error_line(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects an invalid choice itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = [x for x in captured.err.splitlines() if "error: " in x]
    assert message in line
    assert "Traceback" not in captured.err


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


def test_module_entry_point_runs_from_a_checkout(capsys, tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["group", "--which", "g25"]
    proc = subprocess.run(
        [sys.executable, "-m", "braidorbit", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(capsys, *argv)[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify4", "--lambda", "z12,z12^5,z12^3,z12^3"],
        ["orbit", "--lambda", "z12,z12^5,z12^3,z12^3", "--tau", "z12^3,0,0"],
        ["tables", "--which", "1"],
    ],
)
def test_small_commands_never_import_numpy(tmp_path, argv):
    # the README's claim for small orbits, such as the four-puncture tables
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "from braidorbit.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.exit('numpy was imported' if 'numpy' in sys.modules else code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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


# the full README `monodromy` output: the generators are pinned to the bit
MONODROMY_README_JSON = {
    "theta": ["1/6", "1/6", "1/6", "1/6"],
    "sign": "+",
    "poles": ["(-0.7+0.3j)", "0j", "(1+0j)"],
    "generators": [
        [
            [-0.20874260838970665, -0.621805772207869],
            [0.037175180620438016, -0.4682221453868533],
            [0.11316618019687494, -0.27003238175519373],
            [-0.55910208775864, 0.4469301519371607],
            [0.7830108207755146, -0.11869653886553126],
            [-0.10538814693324194, -0.11253188849455514],
            [-0.6079339152147306, 0.2981780467964596],
            [-0.1760715882879216, -0.1540862492725998],
            [0.9257317876141741, -0.1255230927110229],
        ],
        [
            [0.9346167990665398, -0.036028413493918936],
            [-0.17731325205839077, -0.2821967925035007],
            [0.022704043278336753, -0.07266724420148439],
            [-0.3473386263175187, -0.001250867433603833],
            [-0.3535132814073414, -0.7566883351303867],
            [-0.06940317213753563, -0.3473561178264462],
            [-0.08630292080020109, 0.06359176476832587],
            [-0.47462146276744094, 0.06150071330216583],
            [0.9188964823407964, -0.07330865516013493],
        ],
        [
            [0.8890204408163106, -0.00693449503597824],
            [-0.15868456525314123, -0.03155520154594929],
            [-0.15223872128638344, -0.6276220199949066],
            [-0.11079083838250547, -0.02430868475417157],
            [0.8449621832350473, -0.056571961378588616],
            [-0.05552382620748539, -0.6564313618141308],
            [-0.19485191279955502, 0.16206852964908885],
            [-0.31245340744774414, 0.19585489031817319],
            [-0.2339826240513497, -0.8025189473699004],
        ],
    ],
    "local_eigenvalues": [
        [
            [-0.4999999999999776, -0.8660254037844448],
            [0.9999999999999716, 2.8199664825478976e-14],
            [0.9999999999999875, -6.51768135989661e-15],
        ],
        [
            [-0.5000000000000051, -0.8660254037844638],
            [0.9999999999999997, 2.2787064833916032e-14],
            [1.0000000000000004, 6.106226635438361e-16],
        ],
        [
            [-0.49999999999999767, -0.8660254037844657],
            [1.000000000000006, -4.463096558993129e-14],
            [0.9999999999999998, 4.281531319804202e-14],
        ],
    ],
    "closure_size": 648,
}

# the generators as printed when the loops were integrated by sequential
# DOP853 steps shared by all the loop pieces
MONODROMY_SEQUENTIAL_DOP853_GENERATORS = [
    [
        [-0.20874260838972636, -0.6218057722078555],
        [0.03717518062042313, -0.4682221453868418],
        [0.11316618019686703, -0.27003238175520444],
        [-0.5591020877587021, 0.4469301519372106],
        [0.7830108207755346, -0.11869653886559105],
        [-0.10538814693324018, -0.11253188849457206],
        [-0.6079339152147489, 0.298178046796481],
        [-0.17607158828792907, -0.15408624927259423],
        [0.9257317876141775, -0.12552309271101822],
    ],
    [
        [0.9346167990666027, -0.036028413493951056],
        [-0.1773132520584118, -0.2821967925035276],
        [0.022704043278342374, -0.07266724420148123],
        [-0.34733862631752604, -0.0012508674336349887],
        [-0.35351328140735394, -0.756688335130373],
        [-0.06940317213752684, -0.3473561178264424],
        [-0.08630292080019705, 0.0635917647683],
        [-0.4746214627674373, 0.06150071330217163],
        [0.9188964823407878, -0.0733086551601262],
    ],
    [
        [0.8890204408163118, -0.006934495035937243],
        [-0.15868456525309893, -0.03155520154594841],
        [-0.15223872128636662, -0.6276220199949523],
        [-0.11079083838252347, -0.024308684754169203],
        [0.84496218323506, -0.0565719613786238],
        [-0.055523826207527736, -0.656431361814206],
        [-0.19485191279953507, 0.16206852964908217],
        [-0.3124534074476932, 0.195854890318159],
        [-0.23398262405135956, -0.8025189473698896],
    ],
]

# the generators as printed when the loops were integrated by adaptive RK4
# with step doubling; they agree with a DOP853 oracle within 1e-13
MONODROMY_RK4_GENERATORS = [
    [
        [-0.20874260838975706, -0.6218057722078739],
        [0.03717518062043974, -0.468222145386847],
        [0.11316618019687273, -0.2700323817552061],
        [-0.5591020877587458, 0.4469301519372124],
        [0.7830108207755274, -0.11869653886558612],
        [-0.1053881469332412, -0.11253188849457733],
        [-0.6079339152147907, 0.2981780467964818],
        [-0.17607158828792757, -0.1540862492726011],
        [0.9257317876141707, -0.12552309271102513],
    ],
    [
        [0.9346167990665214, -0.03602841349394247],
        [-0.17731325205840615, -0.2821967925034713],
        [0.02270404327832392, -0.07266724420148807],
        [-0.3473386263175275, -0.0012508674336007383],
        [-0.35351328140733773, -0.756688335130401],
        [-0.06940317213752265, -0.347356117826444],
        [-0.08630292080020953, 0.06359176476833395],
        [-0.4746214627674328, 0.06150071330216055],
        [0.9188964823407942, -0.07330865516012192],
    ],
    [
        [0.8890204408163105, -0.006934495035944041],
        [-0.1586845652531043, -0.031555201545954974],
        [-0.15223872128634675, -0.627622019994939],
        [-0.11079083838252106, -0.02430868475417371],
        [0.8449621832350457, -0.05657196137862695],
        [-0.055523826207497184, -0.6564313618141799],
        [-0.19485191279954017, 0.1620685296490796],
        [-0.31245340744770056, 0.19585489031815898],
        [-0.23398262405134918, -0.8025189473699142],
    ],
]

# the generators as printed when path derivatives were central differences
# (eps = 1e-7), which left about 5e-10 of error in every entry
MONODROMY_CENTRAL_DIFFERENCE_GENERATORS = [
    [
        [-0.20874260810965667, -0.6218057723068058],
        [0.03717518063851774, -0.4682221451837538],
        [0.11316618018764324, -0.27003238165666255],
        [-0.5591020877058305, 0.4469301515666055],
        [0.7830108208714455, -0.11869653892773754],
        [-0.10538814682687851, -0.11253188847519212],
        [-0.6079339151446864, 0.29817804646280527],
        [-0.17607158816436352, -0.15408624925513717],
        [0.9257317877193117, -0.12552309268151254],
    ],
    [
        [0.9346167990579914, -0.03602841354565689],
        [-0.17731325218040248, -0.2821967925754042],
        [0.02270404328087085, -0.07266724422492331],
        [-0.34733862617836614, -0.0012508674943249544],
        [-0.35351328093538203, -0.756688335240359],
        [-0.06940317202995057, -0.3473561176953678],
        [-0.08630292079462241, 0.06359176469823513],
        [-0.4746214626771094, 0.061500713053399374],
        [0.91889648240879, -0.07330865514541544],
    ],
    [
        [0.8890204408544269, -0.006934495052018927],
        [-0.15868456521638896, -0.03155520152829006],
        [-0.15223872137126457, -0.627622019906038],
        [-0.11079083834471849, -0.024308684731499],
        [0.8449621832521056, -0.05657196135111451],
        [-0.05552382635626687, -0.6564313616791266],
        [-0.19485191276856087, 0.16206852953154594],
        [-0.3124534073724075, 0.19585489015868232],
        [-0.23398262361926192, -0.8025189475458081],
    ],
]


def test_monodromy_readme_output_pinned(capsys):
    code, out = run(
        capsys, "monodromy", "--theta", "1/6,1/6,1/6,1/6", "--poles=-0.7+0.3j,0,1"
    )
    assert code == 0
    assert out == json.dumps(MONODROMY_README_JSON, indent=2) + "\n"
    pinned = MONODROMY_README_JSON["generators"]
    for reference, bound in (
        (MONODROMY_SEQUENTIAL_DOP853_GENERATORS, 1e-12),
        (MONODROMY_RK4_GENERATORS, 1e-12),
        (MONODROMY_CENTRAL_DIFFERENCE_GENERATORS, 1e-9),
    ):
        for new, old in zip(pinned, reference, strict=True):
            for (x, y), (u, v) in zip(new, old, strict=True):
                assert abs(complex(x, y) - complex(u, v)) < bound


def test_monodromy_rank4_past_bound_is_an_error(capsys):
    code = main(
        [
            "monodromy",
            "--theta",
            "1/6,1/6,1/6,1/6,1/6",
            "--poles=-0.7+0.3j,2.1+0.4j,0,1",
            "--bound",
            "1000",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "bound of 1000" in captured.err
    assert captured.out == ""


def test_monodromy_zero_tol_is_an_error(capsys):
    code = main(
        ["monodromy", "--theta", "1/6,1/6,1/6,1/6", "--poles=-0.7+0.3j,0,1", "--tol", "0"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "tol" in captured.err


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


TABLE4_CSV = "".join(
    line + "\r\n"
    for line in [
        "case-id,lambda,tau,expected_size,computed_size,status",
        "order-9-line,g25,[z9 : z9^2 : 1],72,72,PASS",
        "order-12-line,g25,[1 : 1/2*z12 + 1/2*z12^2 + 1/2*z12^3 : 1/2 + 1/2*z12 - 1/2*z12^2 - z12^3],"
        "54,54,PASS",
        "line-on-2-planes,g25,[1 : 0 : 0],12,12,PASS",
        "line-on-4-planes,g25,[1 : -1 : 0],9,9,PASS",
        "plane-and-proper,g25,[1 : 1 : 0],36,36,PASS",
        "generic-in-plane,g25,[1 : 2 : 0],72,72,PASS",
        "generic-on-proper,g25,[1 : 1 : 3],108,108,PASS",
        "generic,g25,[1 : 2 : 5],216,216,PASS",
    ]
).encode()


def test_tables_command_table4(tmp_path, capsys):
    out_path = tmp_path / "t4.csv"
    code, out = run(capsys, "tables", "--which", "4", "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == TABLE4_CSV


def test_g25_build_and_table4_never_list_the_elements(tmp_path, capsys, monkeypatch):
    # G25's blob element list is built only when `elements` is read
    calls = []
    monkeypatch.setattr(kernel, "closure", lambda *args: calls.append(args))
    reflgrp.build_g25()
    code, _ = run(capsys, "tables", "--which", "4", "--out", str(tmp_path / "t4.csv"))
    assert code == 0
    assert (tmp_path / "t4.csv").read_bytes() == TABLE4_CSV
    assert calls == []


TABLE5_CSV = "".join(
    line + "\r\n"
    for line in [
        "case-id,lambda,tau,expected_size,computed_size,status",
        "generic,g32,[1 : 2 : 3 : 5],25920,25920,PASS",
        "order-30-line,g32,[1 : -2 + z30^3 + z30^4 + z30^5 - 2*z30^7 : -3 - z30 + z30^2 + 2*z30^3 + 2*z30^4 + z30^5 - z30^6 - 3*z30^7 : -1 + z30 + z30^2 + z30^3 - z30^6 - z30^7],5184,5184,PASS",
        "generic-on-proper,g32,[1 : 2 : -1 - 4*z12 - z12^2 + 2*z12^3 : 1 - 4*z12^2 - 3*z12^3],12960,12960,PASS",
        "order-24-line,g32,[1 : -2/3*z24 + 1/3*z24^2 + 2/3*z24^3 + 1/3*z24^5 - 2/3*z24^6 - 1/3*z24^7 : -1/3*z24 - 1/3*z24^2 + 1/3*z24^3 - 1/3*z24^5 + 2/3*z24^6 - 2/3*z24^7 : 2/3*z24 + 2/3*z24^2 + 1/3*z24^3 - 1/3*z24^5 - 1/3*z24^6 - 2/3*z24^7],6480,6480,PASS",
        "generic-in-hyperplane,g32,[1 : 2 : 5 : 0],8640,8640,PASS",
        "order-9-line,g32,[z9 : z9^2 : 1 : 0],2880,2880,PASS",
        "line-on-2-hyperplanes,g32,[1 : 2 : 0 : 0],2880,2880,PASS",
        "on-2-and-3-proper,g32,[1 : z12 : 0 : 0],1440,1440,PASS",
        "line-on-4-hyperplanes,g32,[2 : 1 : 1 : 0],1080,1080,PASS",
        "on-4-and-6-proper,g32,[-3 : 0 : -3 + 3*z12^2 : -3 - 6*z12 + 3*z12^3],540,540,PASS",
        "line-on-5-hyperplanes,g32,[1 : 1 : 0 : 0],360,360,PASS",
        "line-on-12-hyperplanes,g32,[0 : 1 : 0 : 0],40,40,PASS",
    ]
).encode()

LATTICE_G32_JSON = """\
{
  "group": "g32",
  "hyperplanes": 40,
  "codim2_incidences": {
    "4": 90,
    "2": 240
  },
  "codim3_incidences": {
    "12": 40,
    "5": 360
  },
  "orthogonality_consistent": true
}
"""


@pytest.fixture
def shared_g32(monkeypatch, g32):
    # the commands build G32 from scratch; here they reuse the session's
    monkeypatch.setattr(reflgrp, "build_g32", lambda: g32)


@pytest.mark.parametrize(
    "which, counts, normals",
    [
        ("g25", (648, 24, 12, 9), reflgrp.g25_hyperplane_normals),
        ("g32", (155520, 80, 40, 540), reflgrp.g32_hyperplane_normals),
    ],
)
def test_group_command_full(capsys, shared_g32, which, counts, normals):
    # the normals come in the order the conjugation orbits find them, so
    # only their set is fixed
    code, out = run(capsys, "group", "--which", which, "--full")
    data = json.loads(out)
    assert code == 0
    assert (data["order"], data["reflections"], data["hyperplanes"], data["proper_planes"]) == counts
    assert data["degrees_product_equals_order"]
    displayed = {"[" + " : ".join(render(c) for c in n) + "]" for n in normals()}
    assert len(data["hyperplane_normals"]) == counts[2]
    assert set(data["hyperplane_normals"]) == displayed


def test_tables_command_table5(tmp_path, capsys, shared_g32):
    out_path = tmp_path / "t5.csv"
    code, out = run(capsys, "tables", "--which", "5", "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == TABLE5_CSV


def test_lattice_command_g32(capsys, shared_g32):
    code, out = run(capsys, "lattice", "--which", "g32")
    assert code == 0
    assert out == LATTICE_G32_JSON


# sha256 of what each README command writes: the CSV for `tables`, stdout
# otherwise.  `orbit --input rep.json` reads REP_JSON.
PINNED_OUTPUTS = [
    (
        ["orbit", "--lambda", "z12,z12^5,z12^3,z12^3", "--tau", "z12^3,0,0"],
        "49a94d2760d904521c40184a38c1eebbe82808bb30b4d8153ea342b3bbee1340",
    ),
    (
        ["orbit", "--input", "rep.json"],
        "49a94d2760d904521c40184a38c1eebbe82808bb30b4d8153ea342b3bbee1340",
    ),
    (
        ["classify4", "--lambda", "z12,z12^5,z12^3,z12^3"],
        "9725389066b2fc1b3f6826d92dc4c3b132f830198dfe6fcc33adc13cf2a575b9",
    ),
    (
        ["gate", "--lambda", "z4,1,1,1,1,z4^-1", "--tau", "0,1,1,1,0"],
        "a2d425a786dc55c016405962791e6720af528abf49f3b24be178531277c7a9b5",
    ),
    (
        ["group", "--which", "g25"],
        "3fe9963e2fd1897d6b13f45439d5c4010a71e6e7ba04ee081f0c4cc7cb0aecc5",
    ),
    (
        ["strata", "--which", "g25", "--point", "[1:-1:0]"],
        "06cc7314d40d58cc74e38b1acb71378d5d8e8398cd6d0da298cbb80917b778c4",
    ),
    (
        ["coalesce", "--n", "5", "--k", "4", "--l", "1"]
        + ["--lambda", "z6,z6,z6,z6,z6^2", "--tau", "1,2,3,4"],
        "dc7f3aee9f3c7accd68f5fc4b62c99b71b730d8399263668ba58a8038b7b4dd2",
    ),
    (
        ["monodromy", "--theta", "1/6,1/6,1/6,1/6", "--poles=-0.7+0.3j,0,1"],
        "de00eed985ba5f9f54de3222b0871bc60782d4f0a1d568b536e5972aa086539c",
    ),
    (
        ["tables", "--which", "1"],
        "3a640070d9f9387cb57ebf3b757edef0f219f29a67abc22c64a045be08b240ac",
    ),
    (
        ["tables", "--which", "2"],
        "e8c314fbd2095211150d654061e32bdda50d06b86ba8d4e3c68f0abf4f7be402",
    ),
    (
        ["tables", "--which", "3"],
        "a99f7b0448ab4de66857214a9250096e3d8e7e0ce11e2116c2899ec4526c6ce4",
    ),
    (
        ["tables", "--which", "4"],
        "b4fd0b29fb2342832d73d967f960b92e1ed6c2c4c96d26b20f55b2a21a392fd0",
    ),
    (
        ["tables", "--which", "5"],
        "d9ae0cfd554b78743f8dbe1f3f0d2e4a4dcd7afdf9e1db4312f809f988cb30b3",
    ),
    (
        ["strata", "--which", "g25", "--point", "[1:2:0]"],
        "a173f9966a16b399b80188fcfa64445713a4c3654e4305a758d4be654fef2718",
    ),
    (
        ["strata", "--which", "g32", "--point", "[1:2:3:7]"],
        "fe2508ee45838f69e4eb8e9d99f1d7f0eb96498a99f4c681831f2b78163f1ff0",
    ),
    (
        ["strata", "--which", "g32", "--point", "[-3:0:-3 + 3*z12^2:-3 - 6*z12 + 3*z12^3]"],
        "408a75281888dd45904ef6d8ca3707e6dbed5a1ee2e388bebe234e0059afbbfc",
    ),
    (
        ["lattice", "--which", "g25"],
        "ac2dbf64c851cbfb5e20b152cf0c56b9a8722c5e30af60eccb609307cf7f5cdd",
    ),
    (
        ["lattice", "--which", "g32"],
        "2e64eabc7b028ad1a5eafd590e7c5075109c3f9b4a71875d3801920a1ebb9eb3",
    ),
    (
        ["group", "--which", "g25", "--full"],
        "a43663914c379cf870ab379ae31700c9646531d3b5272434ef4200261e3e0808",
    ),
    (
        ["group", "--which", "g32", "--full"],
        "6c8473c22708127e7f77a3a875e34ad8509e01dd0ae35de714884a2f1f47e516",
    ),
]


REP_JSON = {"n": 4, "lambda": ["z12", "z12^5", "z12^3", "z12^3"], "tau": ["z12^3", "0", "0"]}

# rank-4 `monodromy` takes about 1 s; its one closure-dependent field, the
# order 155520, is checked by test_rank4_monodromy_closure_155520
UNPINNED = [["monodromy", "--theta", "1/6,1/6,1/6,1/6,1/6", "--poles=-0.7+0.3j,2.1+0.4j,0,1"]]


@pytest.mark.parametrize(
    "argv, digest", PINNED_OUTPUTS, ids=[" ".join(a) for a, _ in PINNED_OUTPUTS]
)
def test_readme_outputs_pinned(tmp_path, capsys, monkeypatch, g25, g32, argv, digest):
    # the commands build their group from scratch; here they reuse the session's
    monkeypatch.setattr(cli, "_build_group", {"g25": g25, "g32": g32}.__getitem__)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rep.json").write_text(json.dumps(REP_JSON))
    if argv[0] == "tables":
        code, _ = run(capsys, *argv, "--out", "table.csv")
        out = (tmp_path / "table.csv").read_bytes()
    else:
        code, text = run(capsys, *argv)
        out = text.encode()
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == digest


def test_every_readme_command_is_pinned():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    usage = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in usage.splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 11
    pinned = [argv for argv, _ in PINNED_OUTPUTS] + UNPINNED
    for argv in commands:
        if argv[0] == "tables":
            argv = argv[: argv.index("--out")]  # the test names its own CSV
        assert argv in pinned
