"""Graph file I/O round trips (edge list, MatrixMarket, DIMACS)."""

import numpy as np
import pytest

from repro.graph import generators, io, with_random_weights


@pytest.fixture()
def g():
    return generators.kronecker(7, seed=1)


@pytest.fixture()
def gw(g):
    return with_random_weights(g, seed=2)


def test_edgelist_roundtrip(tmp_path, g):
    p = tmp_path / "g.txt"
    io.write_edgelist(g, p)
    back = io.read_edgelist(p, n=g.n)
    assert back == g


def test_edgelist_weighted_roundtrip(tmp_path, gw):
    p = tmp_path / "g.txt"
    io.write_edgelist(gw, p)
    back = io.read_edgelist(p, n=gw.n)
    assert back == gw


def test_edgelist_skips_comments(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\n% other comment\n0 1\n\n1 2\n")
    g = io.read_edgelist(p)
    assert g.n == 3
    assert g.m == 2


def test_edgelist_rejects_malformed(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0\n")
    with pytest.raises(ValueError):
        io.read_edgelist(p)


def test_edgelist_rejects_mixed_weights(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1 2.5\n1 2\n")
    with pytest.raises(ValueError):
        io.read_edgelist(p)


def test_edgelist_undirected_flag(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n")
    g = io.read_edgelist(p, undirected=True)
    assert g.m == 2


def test_matrix_market_roundtrip(tmp_path, g):
    p = tmp_path / "g.mtx"
    io.write_matrix_market(g, p)
    back = io.read_matrix_market(p)
    assert back == g


def test_matrix_market_weighted_roundtrip(tmp_path, gw):
    p = tmp_path / "g.mtx"
    io.write_matrix_market(gw, p)
    back = io.read_matrix_market(p)
    assert back == gw


def test_matrix_market_symmetric_header(tmp_path):
    p = tmp_path / "g.mtx"
    p.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                 "3 3 1\n1 2\n")
    g = io.read_matrix_market(p)
    assert g.m == 2  # symmetrized per the header


def test_matrix_market_rejects_non_mm(tmp_path):
    p = tmp_path / "g.mtx"
    p.write_text("hello\n")
    with pytest.raises(ValueError):
        io.read_matrix_market(p)


def test_matrix_market_rejects_rectangular(tmp_path):
    p = tmp_path / "g.mtx"
    p.write_text("%%MatrixMarket matrix coordinate pattern general\n3 4 0\n")
    with pytest.raises(ValueError):
        io.read_matrix_market(p)


def test_dimacs_roundtrip(tmp_path, gw):
    p = tmp_path / "g.gr"
    io.write_dimacs(gw, p)
    back = io.read_dimacs(p)
    assert back == gw


def test_dimacs_unweighted_writes_ones(tmp_path, g):
    p = tmp_path / "g.gr"
    io.write_dimacs(g, p)
    back = io.read_dimacs(p)
    assert np.all(back.edge_values == 1.0)
    assert back.m == g.m


def test_dimacs_rejects_garbage(tmp_path):
    p = tmp_path / "g.gr"
    p.write_text("p sp 2 1\nx 1 2 3\n")
    with pytest.raises(ValueError):
        io.read_dimacs(p)


def test_networkx_roundtrip(g):
    from repro.graph.build import from_networkx, to_networkx

    nxg = to_networkx(g, directed=True)
    back = from_networkx(nxg)
    assert back == g


def test_scipy_roundtrip(gw):
    from repro.graph.build import from_scipy, to_scipy

    back = from_scipy(to_scipy(gw))
    assert back == gw


def test_npz_roundtrip(tmp_path, g):
    p = tmp_path / "g.npz"
    io.write_npz(g, p)
    assert io.read_npz(p) == g


def test_npz_weighted_roundtrip(tmp_path, gw):
    p = tmp_path / "g.npz"
    io.write_npz(gw, p)
    back = io.read_npz(p)
    assert back == gw
    assert back.edge_values is not None


def test_npz_cli_roundtrip(tmp_path, capsys):
    from repro.cli import main

    p = str(tmp_path / "g.npz")
    assert main(["generate", "--generate", "kron:7", "--output", p]) == 0
    assert main(["info", p]) == 0
    assert "vertices" in capsys.readouterr().out


# -- error context (GraphIOError names file and line) -------------------------------------


def test_graph_io_error_is_value_error():
    assert issubclass(io.GraphIOError, ValueError)


def test_edgelist_error_names_file_and_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1\n2 3\noops\n")
    with pytest.raises(io.GraphIOError) as err:
        io.read_edgelist(p)
    assert str(p) in str(err.value)
    assert ":3:" in str(err.value)
    assert err.value.line == 3


def test_edgelist_non_numeric_entry(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 one\n")
    with pytest.raises(io.GraphIOError, match="non-numeric"):
        io.read_edgelist(p)


def test_matrix_market_truncated_file(tmp_path):
    p = tmp_path / "trunc.mtx"
    p.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                 "4 4 3\n1 2\n")
    with pytest.raises(io.GraphIOError, match="end of file"):
        io.read_matrix_market(p)


def test_matrix_market_bad_size_line(tmp_path):
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix coordinate pattern general\nx y z\n")
    with pytest.raises(io.GraphIOError) as err:
        io.read_matrix_market(p)
    assert err.value.line == 2


def test_dimacs_error_names_line(tmp_path):
    p = tmp_path / "bad.gr"
    p.write_text("p sp 3 1\na 1 2 nonsense-weight\n")
    with pytest.raises(io.GraphIOError) as err:
        io.read_dimacs(p)
    assert err.value.line == 2


def test_missing_file_raises_graph_io_error(tmp_path):
    with pytest.raises(io.GraphIOError):
        io.read_edgelist(tmp_path / "nope.txt")


def test_npz_not_a_snapshot(tmp_path):
    import numpy as _np

    p = tmp_path / "other.npz"
    _np.savez(p, foo=_np.zeros(3))
    with pytest.raises(io.GraphIOError, match="snapshot"):
        io.read_npz(p)


def test_matrix_market_rejects_nan_weight(tmp_path):
    p = tmp_path / "nan.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n"
                 "3 3 3\n1 2 1\n2 3 nan\n1 3 1\n")
    with pytest.raises(io.GraphIOError, match="non-finite") as err:
        io.read_matrix_market(p)
    assert f"{p}:4:" in str(err.value)


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_edgelist_rejects_non_finite_weight(tmp_path, weight):
    p = tmp_path / "g.txt"
    p.write_text(f"0 1 1\n1 2 {weight}\n0 2 1\n")
    with pytest.raises(io.GraphIOError, match="non-finite") as err:
        io.read_edgelist(p)
    assert err.value.line == 2


def test_dimacs_rejects_non_finite_weight(tmp_path):
    p = tmp_path / "g.gr"
    p.write_text("p sp 3 3\na 1 2 1\na 2 3 inf\na 1 3 1\n")
    with pytest.raises(io.GraphIOError, match="non-finite") as err:
        io.read_dimacs(p)
    assert err.value.line == 3


def test_npz_rejects_non_finite_weight(tmp_path):
    import numpy as _np

    p = tmp_path / "nan.npz"
    _np.savez(p, indptr=_np.array([0, 2, 3, 3]), indices=_np.array([1, 2, 2]),
              edge_values=_np.array([1.0, 1.0, _np.nan]), n=_np.int64(3))
    with pytest.raises(io.GraphIOError, match="non-finite") as err:
        io.read_npz(p)
    assert str(p) in str(err.value)


def test_cli_exits_2_on_bad_graph(tmp_path, capsys):
    from repro.cli import main

    p = tmp_path / "bad.mtx"
    p.write_text("not a matrix\n")
    assert main(["info", str(p)]) == 2
    assert "bad.mtx:1" in capsys.readouterr().err
