import errno
import io
import json
import os
import random
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from common import (
    complete_bipartite,
    cycle_graph,
    k33_edge_tree,
    k33_line_chain,
    order7_on_prism,
    order7_with_k33_side,
    path_graph,
    prism_graph,
)
import tricolor
from tricolor.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_MALFORMED,
    EXIT_NEGATIVE,
    EXIT_OK,
    graph_to_json,
    main,
    parse_dimacs,
    parse_graph_json,
    read_graph,
    write_dimacs,
)


def load_schema(name):
    text = resources.files("tricolor").joinpath(f"schemas/{name}.json").read_text()
    return json.loads(text)


def validate(doc, schema_name):
    jsonschema.validate(doc, load_schema(schema_name))


def write_graph_file(tmp_path, g, name="g.col"):
    path = tmp_path / name
    path.write_text(write_dimacs(g))
    return str(path)


class TestGraphIO:
    def test_dimacs_round_trip(self):
        g = prism_graph()
        assert parse_dimacs(write_dimacs(g)) == g

    def test_json_round_trip(self):
        g = prism_graph()
        doc = graph_to_json(g)
        validate(doc, "graph")
        assert parse_graph_json(json.loads(json.dumps(doc))) == g

    def test_dimacs_comments_ignored(self):
        g = parse_dimacs("c hello\np edge 3 2\nc mid\ne 1 2\ne 2 3\n")
        assert g.n == 3 and g.m == 2

    def test_dimacs_errors(self):
        from tricolor import MalformedInputError

        with pytest.raises(MalformedInputError):
            parse_dimacs("e 1 2\n")
        with pytest.raises(MalformedInputError):
            parse_dimacs("p edge 2 1\nq 1 2\n")
        with pytest.raises(MalformedInputError, match="line 2"):
            parse_dimacs("p edge 2 1\ne 1 two\n")
        with pytest.raises(MalformedInputError, match="line 1"):
            parse_dimacs("p edge x 2\ne 1 2\n")
        # Rejected before one adjacency list per vertex is allocated.
        with pytest.raises(MalformedInputError, match="exceeds"):
            parse_dimacs("p edge 100000000000 0\n")
        # Edge errors name the line and the ids as written, 1-based.
        for text, message in [
            ("p edge 3 2\ne 0 1\n", "line 2: vertex 0 out of range [1,3] in 'e 0 1'"),
            ("p edge 3 2\ne 1 2\ne 2 4\n", "line 3: vertex 4 out of range [1,3] in 'e 2 4'"),
            ("p edge 3 1\ne 1 1\n", "line 2: self-loop at vertex 1 in 'e 1 1'"),
            ("p edge 3 1\ne -1 -1\n", "line 2: vertex -1 out of range [1,3] in 'e -1 -1'"),
            ("p edge 3 x\ne 1 2\n", "line 1: non-integer 'x' in 'p edge 3 x'"),
            ("p edge 3 1\ne 1 2\np edge 2 0\n", "line 3: second problem line 'p edge 2 0'"),
        ]:
            with pytest.raises(MalformedInputError) as info:
                parse_dimacs(text)
            assert str(info.value) == message

    def test_dimacs_edge_count_not_enforced(self):
        # Real files often count each edge twice.
        for count in (0, 1, 4):
            g = parse_dimacs(f"p edge 3 {count}\ne 1 2\ne 2 1\n")
            assert g.n == 3 and g.m == 1

    def test_dimacs_non_integer_exits_malformed(self, tmp_path):
        for text in ("p edge 2 1\ne 1 two\n", "p edge x 2\ne 1 2\n", "p edge 3 x\ne 1 2\n",
                     "p edge 3 1\ne 0 1\n", "p edge 3 1\ne 1 1\n",
                     "p edge 3 1\ne 1 2\np edge 2 0\n"):
            bad = tmp_path / "bad.col"
            bad.write_text(text)
            assert main(["recognize", str(bad)]) == EXIT_MALFORMED

    def test_format_sniffing(self, tmp_path):
        g = cycle_graph(5)
        jpath = tmp_path / "g.json"
        jpath.write_text(json.dumps(graph_to_json(g)))
        assert read_graph(str(jpath)) == g
        cpath = tmp_path / "g.col"
        cpath.write_text(write_dimacs(g))
        assert read_graph(str(cpath)) == g

    def test_format_is_read_from_the_text(self, tmp_path, capsys):
        # A graph JSON document starts with "{" and no DIMACS file does; the name plays no part.
        g = cycle_graph(5)
        compact = json.dumps(graph_to_json(g))
        cases = [("g.col", compact), ("g.txt", compact), ("g", compact),
                 ("blank.col", "\n \n\t" + json.dumps(graph_to_json(g), indent=2)),
                 ("g.json", write_dimacs(g))]
        for name, text in cases:
            path = tmp_path / name
            path.write_text(text)
            assert read_graph(str(path)) == g, name
            assert main(["color", str(path)]) == EXIT_OK, name
            assert json.loads(capsys.readouterr().out)["graph_hash"] == g.canonical_hash(), name


class TestCommands:
    def test_color_and_verify(self, tmp_path, capsys):
        gfile = write_graph_file(tmp_path, prism_graph())
        assert main(["color", gfile]) == EXIT_OK
        cert_doc = json.loads(capsys.readouterr().out)
        validate(cert_doc, "certificate")
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(cert_doc))
        assert main(["verify", gfile, str(cert_file)]) == EXIT_OK
        capsys.readouterr()
        # Tamper and re-verify.
        cert_doc["coloring"]["0"] = cert_doc["coloring"]["1"]
        cert_file.write_text(json.dumps(cert_doc))
        assert main(["verify", gfile, str(cert_file)]) == EXIT_NEGATIVE

    def test_color_and_verify_long_chain(self, tmp_path, capsys):
        g = k33_line_chain(626)
        assert g.n == 5009
        gfile = write_graph_file(tmp_path, g)
        assert main(["color", gfile]) == EXIT_OK
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(capsys.readouterr().out)
        assert main(["verify", gfile, str(cert_file)]) == EXIT_OK

    def test_recognize(self, tmp_path, capsys):
        gfile = write_graph_file(tmp_path, complete_bipartite(3, 3))
        assert main(["recognize", gfile]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        validate(doc, "verdict")
        assert doc["branch"] == "complete_bipartite"

    def test_recognize_line_of_sparse(self, tmp_path, capsys):
        g = tricolor.line_graph(tricolor.subdivide(tricolor.random_cubic_graph(3, 8)))
        assert main(["recognize", write_graph_file(tmp_path, g)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        validate(doc, "verdict")
        assert doc["branch"] == "line_of_sparse"
        root = doc["root"]
        ends = {int(v): tuple(e) for v, e in root["vertex_to_edge"].items()}
        assert set(ends) == set(g.vertices)
        assert sorted(ends.values()) == sorted(map(tuple, root["root_edges"]))
        assert all(0 <= x < root["root_n"] for e in ends.values() for x in e)
        # g is the line graph of the root: adjacent exactly when the root edges meet.
        for u in g.vertices:
            for v in g.vertices:
                if u < v:
                    assert g.has_edge(u, v) == bool(set(ends[u]) & set(ends[v])), (u, v)

    def test_recognize_proper_2_cutset(self, tmp_path, capsys):
        g = tricolor.gen_series_parallel(5, 20)
        assert main(["recognize", write_graph_file(tmp_path, g)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        validate(doc, "verdict")
        assert doc["branch"] == "proper_2_cutset"
        cutset = doc["cutset"]
        parts = cutset["pair"] + cutset["side_x"] + cutset["side_y"]
        assert sorted(parts) == list(g.vertices)
        a, b = cutset["pair"]
        x, y = set(cutset["side_x"]), set(cutset["side_y"])
        assert x and y and not g.has_edge(a, b)
        assert not any(u in x and v in y or u in y and v in x for u, v in g.edges())

    def test_recognize_negative(self, tmp_path, capsys):
        from common import petersen_graph

        gfile = write_graph_file(tmp_path, petersen_graph())
        assert main(["recognize", gfile]) == EXIT_NEGATIVE
        assert json.loads(capsys.readouterr().out)["branch"] == "unclassified"

    def test_decompose(self, tmp_path, capsys):
        gfile = write_graph_file(tmp_path, prism_graph())
        assert main(["decompose", gfile]) == EXIT_OK
        validate(json.loads(capsys.readouterr().out), "tree")

    def test_decompose_blocks_node(self, tmp_path, capsys):
        gfile = write_graph_file(tmp_path, k33_line_chain(5))
        assert main(["decompose", gfile]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        validate(doc, "tree")
        assert doc["layers"] == 2
        root = doc["nodes"][0]
        assert root["kind"] == "blocks" and root["cutset"] == [5, 16, 21, 32]
        assert len(root["children"]) == 5

    def test_decompose_atoms_node(self, tmp_path, capsys):
        gfile = write_graph_file(tmp_path, k33_edge_tree(2, 4))
        assert main(["decompose", gfile]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        validate(doc, "tree")
        root = doc["nodes"][0]
        assert root["kind"] == "atoms" and len(root["children"]) == 4
        assert doc["layers"] == 2

    def test_decompose_proper_2_cutset_node(self, tmp_path, capsys):
        gfile = write_graph_file(tmp_path, order7_with_k33_side())
        assert main(["decompose", gfile]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        validate(doc, "tree")
        assert doc["format"] == "tricolor.tree/5"
        nodes = {nd["id"]: nd for nd in doc["nodes"]}
        (cut,) = [nd for nd in doc["nodes"] if nd["kind"] == "proper_2_cutset"]
        assert cut["cutset"] == [0, 3] and cut["branch"] == "proper_2_cutset"
        (child_id,) = cut["children"]
        assert nodes[child_id]["kind"] == "basic"
        assert nodes[child_id]["branch"] == "complete_bipartite"

    def test_decompose_lists_removed_vertices(self, tmp_path, capsys):
        # The proper-2-cutset child peels the apexes 0 and 3 off its side.
        gfile = write_graph_file(tmp_path, order7_on_prism())
        assert main(["decompose", gfile]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        validate(doc, "tree")
        (child,) = [nd for nd in doc["nodes"] if nd["id"] in doc["nodes"][0]["children"]]
        assert child["removed"] == [0, 3]
        # The schema takes plain ids only, not the vertex-and-neighbours pairs
        # of earlier formats.
        child["removed"] = [[0, [6]], [3, [10]]]
        with pytest.raises(jsonschema.ValidationError):
            validate(doc, "tree")

    def test_long_path_membership_exact_and_color_verifies(self, tmp_path, capsys):
        # A path has an empty 2-core, so the K4-subdivision search is exact
        # and instant however long the path is.
        gfile = write_graph_file(tmp_path, path_graph(10_000))
        assert main(["membership", gfile]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        validate(doc, "membership")
        assert doc["verdict"] == "member" and doc["mode"] == "exact"
        assert main(["color", gfile]) == EXIT_OK
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(capsys.readouterr().out)
        validate(json.loads(cert_file.read_text()), "certificate")
        assert main(["verify", gfile, str(cert_file)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"valid": True}

    def test_chi(self, tmp_path, capsys):
        gfile = write_graph_file(tmp_path, cycle_graph(5))
        assert main(["chi", gfile]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "3"

    def test_chi_budget(self, tmp_path, capsys):
        gfile = write_graph_file(tmp_path, cycle_graph(25))
        assert main(["chi", gfile]) == EXIT_BUDGET

    def test_membership_exit_codes(self, tmp_path, capsys):
        member = write_graph_file(tmp_path, cycle_graph(7), "m.col")
        assert main(["membership", member]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        validate(doc, "membership")

        from common import bowtie_graph

        non = write_graph_file(tmp_path, bowtie_graph(), "n.col")
        assert main(["membership", non]) == EXIT_NEGATIVE
        doc = json.loads(capsys.readouterr().out)
        validate(doc, "membership")
        assert doc["witness"]["kind"] == "bowtie"

        big = write_graph_file(tmp_path, cycle_graph(30), "b.col")
        assert main(["membership", big, "--budget", "12"]) == EXIT_BUDGET

    def test_color_nonmember_internal_failure(self, tmp_path, capsys):
        from common import complete_graph

        gfile = write_graph_file(tmp_path, complete_graph(4))
        assert main(["color", gfile]) == EXIT_INTERNAL

    def test_verify_refuses_a_wrong_vertex_set_or_size(self, tmp_path, capsys):
        # Well-formed certificates with the graph's own hash, but a coloring
        # that misses a vertex or names one too many, or a count off by one.
        gfile = write_graph_file(tmp_path, prism_graph())
        assert main(["color", gfile]) == EXIT_OK
        good = json.loads(capsys.readouterr().out)
        coloring = good["coloring"]
        cases = [
            dict(good, coloring={v: c for v, c in coloring.items() if v != "5"}),
            dict(good, coloring=dict(coloring, **{"6": 0})),
            dict(good, n=good["n"] + 1),
            dict(good, n=good["n"] - 1),
            dict(good, m=good["m"] + 1),
            dict(good, m=good["m"] - 1),
        ]
        cert_file = tmp_path / "cert.json"
        for doc in cases:
            cert_file.write_text(json.dumps(doc))
            assert main(["verify", gfile, str(cert_file)]) == EXIT_NEGATIVE, doc
        assert capsys.readouterr().out.count('"valid": false') == len(cases)

    def test_fold_contract_violation_is_a_structured_failure(self, tmp_path, capsys,
                                                              monkeypatch):
        def refuse(*args):
            raise tricolor.ContractViolationError("merge refused")

        monkeypatch.setattr(tricolor.pipeline, "merge_at_clique", refuse)
        g = k33_line_chain(3)
        with pytest.raises(tricolor.PipelineError) as err:
            tricolor.color_class_member(g)
        assert err.value.payload == {
            "verdict": "structure",
            "graph": {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges()]},
        }
        assert main(["color", write_graph_file(tmp_path, g)]) == EXIT_INTERNAL
        out, err_text = capsys.readouterr()
        assert out == "" and "Traceback" not in err_text
        assert json.loads(err_text[err_text.index("{"):]) == err.value.payload

    def test_missing_or_negative_problem_line_exits_malformed(self, tmp_path, capsys, caplog):
        for text, message in (("c only\n", "missing problem line"),
                              ("p edge -1 0\n", "negative vertex count -1")):
            bad = tmp_path / "bad.col"
            bad.write_text(text)
            caplog.clear()
            assert main(["color", str(bad)]) == EXIT_MALFORMED
            assert capsys.readouterr().out == ""
            assert f"malformed input: cannot load {bad}: {message}" in caplog.text

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.col"
        bad.write_text("p edge 2 1\ne 1 1\n")
        assert main(["color", str(bad)]) == EXIT_MALFORMED
        assert main(["color", str(tmp_path / "missing.col")]) == EXIT_MALFORMED

    def test_graph_json_accepts_only_integers(self, tmp_path, capsys, caplog):
        # Each of these once read as the path 0-1-2 or the edge 0-1.
        bad = tmp_path / "bad.json"
        for doc in ({"n": 3.9, "edges": [[0, 1.7], [True, 2]]}, {"n": 3, "edges": [[0, 1.7]]},
                    {"n": 3, "edges": [[True, 2]]}, {"n": "3", "edges": [["0", "1"]]},
                    {"n": 3, "edges": [["0", "1"]]}):
            bad.write_text(json.dumps(doc))
            for command in ("decompose", "recognize", "color"):
                assert main([command, str(bad)]) == EXIT_MALFORMED, (command, doc)
        assert capsys.readouterr().out == ""
        assert (f"malformed input: cannot load {bad}: "
                "bad graph JSON: n must be an integer, got 3.9") in caplog.text
        assert "edge end must be an integer, got '0'" in caplog.text

    def test_generate_kinds(self, tmp_path, capsys):
        for kind in ("sp", "line", "glue", "diamond", "bowtie", "isk4"):
            assert main(["generate", "--kind", kind, "--seed", "1",
                         "--size", "12", "--format", "json"]) == EXIT_OK
            doc = json.loads(capsys.readouterr().out)
            validate(doc, "graph")

    def test_generate_bad_size_exits_malformed(self, capsys):
        for kind, size in (("sp", "0"), ("diamond", "2"), ("isk4", "3"), ("line", "-6"),
                           ("line", "11"), ("glue", "0"), ("glue", "3")):
            assert main(["generate", "--kind", kind, "--size", size]) == EXIT_MALFORMED
            assert capsys.readouterr().out == ""

    def test_generate_size_over_the_input_limit_exits_malformed(self, capsys, caplog):
        # Refused before anything is built, with the message input files get.
        for kind in ("sp", "line", "glue", "diamond"):
            assert main(["generate", "--kind", kind, "--size", "1000001"]) == EXIT_MALFORMED
            assert capsys.readouterr().out == ""
        assert "vertex count 1000001 exceeds the limit of 1000000" in caplog.text

    def test_generate_color_round_trip(self, tmp_path, capsys):
        assert main(["generate", "--kind", "sp", "--seed", "2", "--size", "40"]) == EXIT_OK
        text = capsys.readouterr().out
        gfile = tmp_path / "sp.col"
        gfile.write_text(text)
        assert main(["color", str(gfile)]) == EXIT_OK
        validate(json.loads(capsys.readouterr().out), "certificate")

    def test_jobs_flag_removed(self, tmp_path, capsys):
        gfile = write_graph_file(tmp_path, prism_graph())
        with pytest.raises(SystemExit) as err:
            main(["color", gfile, "--jobs", "1"])
        assert err.value.code == EXIT_MALFORMED

    def test_certificate_shape_errors(self, tmp_path, capsys):
        gfile = write_graph_file(tmp_path, prism_graph())
        assert main(["color", gfile]) == EXIT_OK
        good = json.loads(capsys.readouterr().out)
        bad_docs = [
            [good],
            "certificate",
            dict(good, coloring=[1]),
            dict(good, coloring="0"),
            dict(good, n=[6]),
            dict(good, format="tricolor.certificate/1"),
            {k: v for k, v in good.items() if k != "palette"},
            dict(good, graph_hash=5),
            dict(good, leaves="x"),
            # Shapes that schemas/certificate.json refuses, read by verify as
            # valid or invalid certificates while from_json checked only types.
            dict(good, graph_hash="abc"),
            dict(good, n=-1),
            dict(good, palette=7),
            dict(good, coloring=dict(good["coloring"], **{"0": 5})),
            dict(good, leaves=[5]),
            dict(good, leaves=[{"size": 0, "branch": "x"}]),
            dict(good, fallback_count=-2),
            dict(good, extra=1),
        ]
        cert_file = tmp_path / "cert.json"
        for doc in bad_docs:
            cert_file.write_text(json.dumps(doc))
            assert main(["verify", gfile, str(cert_file)]) == EXIT_MALFORMED, doc
        # On the path 0-1-2 each of these read as a valid certificate when
        # floats, bools and keys were coerced and a later duplicate key won.
        pfile = write_graph_file(tmp_path, path_graph(3), "path.col")
        assert main(["color", pfile]) == EXIT_OK
        path_cert = dict(json.loads(capsys.readouterr().out), palette=2,
                         coloring={"0": 0, "1": 1, "2": 0})
        for doc in (path_cert, dict(path_cert, palette=2.7), dict(path_cert, n=3.9),
                    dict(path_cert, m=2.0), dict(path_cert, fallback_count=0.5),
                    dict(path_cert, coloring={"0": 0, "1": True, "2": 0}),
                    dict(path_cert, coloring={"0": 0, "1": 1, "2": 1, " 2": 0}),
                    # Keys other than str(v) of an id v >= 0, as to_json writes them.
                    dict(path_cert, coloring={"0_0": 0, "1": 1, "2": 0}),
                    dict(path_cert, coloring={"0": 0, " 1": 1, "2": 0}),
                    dict(path_cert, coloring={"0": 0, "1": 1, "+2": 0}),
                    dict(path_cert, coloring={"00": 0, "1": 1, "2": 0}),
                    dict(path_cert, coloring={"-0": 0, "1": 1, "2": 0})):
            cert_file.write_text(json.dumps(doc))
            expected = EXIT_OK if doc is path_cert else EXIT_MALFORMED
            assert main(["verify", pfile, str(cert_file)]) == expected, doc

    def test_negative_budget_exits_malformed(self, tmp_path, capsys, caplog):
        gfile = write_graph_file(tmp_path, cycle_graph(5))
        for argv in (["chi", gfile], ["membership", gfile]):
            assert main(argv + ["--budget", "-1"]) == EXIT_MALFORMED, argv
            assert main(argv + ["--budget", "-3"]) == EXIT_MALFORMED, argv
        assert capsys.readouterr().out == ""
        assert "--budget must be non-negative, got -3" in caplog.text

    def test_generate_has_no_budget(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--kind", "line", "--size", "12", "--budget", "5"])
        assert err.value.code == EXIT_MALFORMED

    def test_reading_commands_have_no_format(self, tmp_path, capsys):
        # The text of a graph file tells its format; only generate chooses one.
        gfile = write_graph_file(tmp_path, prism_graph())
        for argv in (["recognize", gfile], ["decompose", gfile], ["color", gfile],
                     ["verify", gfile, gfile], ["chi", gfile], ["membership", gfile]):
            for fmt in ("col", "json"):
                with pytest.raises(SystemExit) as err:
                    main([*argv, "--format", fmt])
                assert err.value.code == EXIT_MALFORMED, (argv, fmt)
        assert capsys.readouterr().out == ""

    def test_color_and_verify_read_generated_json(self, tmp_path, capsys):
        for kind in ("sp", "line"):
            assert main(["generate", "--kind", kind, "--seed", "3", "--size", "40",
                         "--format", "json"]) == EXIT_OK
            gfile = tmp_path / f"{kind}.txt"
            gfile.write_text(capsys.readouterr().out)
            assert main(["color", str(gfile)]) == EXIT_OK, kind
            cfile = tmp_path / f"{kind}-cert.json"
            cfile.write_text(capsys.readouterr().out)
            assert main(["verify", str(gfile), str(cfile)]) == EXIT_OK, kind
            assert json.loads(capsys.readouterr().out) == {"valid": True}

    def test_color_has_no_membership_flags(self, tmp_path, capsys):
        # `tricolor membership` is the one way to ask the oracle.
        gfile = write_graph_file(tmp_path, prism_graph())
        for flags in (["--verify-membership"], ["--budget", "5"]):
            with pytest.raises(SystemExit) as err:
                main(["color", gfile, *flags])
            assert err.value.code == EXIT_MALFORMED, flags
        assert capsys.readouterr().out == ""

    def test_verify_names_the_bad_file(self, tmp_path, capsys, caplog):
        gfile = write_graph_file(tmp_path, prism_graph())
        assert main(["color", gfile]) == EXIT_OK
        cert = json.loads(capsys.readouterr().out)
        cert_file, bad_graph = tmp_path / "c.json", tmp_path / "syn.col"
        cert_file.write_text(json.dumps(cert))
        bad_graph.write_text("p edge 3 2\ne 1 x\n")
        assert main(["verify", str(bad_graph), str(cert_file)]) == EXIT_MALFORMED
        assert (f"malformed input: cannot load {bad_graph}: line 2: non-integer 'x' in 'e 1 x'"
                in caplog.text)
        caplog.clear()
        cert_file.write_text(json.dumps(dict(cert, graph_hash=5)))
        assert main(["verify", gfile, str(cert_file)]) == EXIT_MALFORMED
        assert f"malformed input: cannot load {cert_file}: certificate graph_hash" in caplog.text
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("method", ["write", "flush"])
    def test_closed_stdout_exits_quietly(self, method, tmp_path, capsys, monkeypatch):
        # As in `tricolor decompose g.col | head -1`: the reader is gone.  A
        # large output meets the closed pipe on write, a small one on flush.
        gfile = write_graph_file(tmp_path, prism_graph())
        read_end, write_end = os.pipe()

        class ClosedPipe(io.StringIO):
            def fileno(self):
                return write_end

        def broken(self, *args):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        setattr(ClosedPipe, method, broken)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            assert main(["decompose", gfile]) == EXIT_BROKEN_PIPE
            # The descriptor now points at devnull, so a flush at exit succeeds.
            assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
        finally:
            os.close(read_end)
            os.close(write_end)
        assert capsys.readouterr().err == ""

    def test_closed_stderr_keeps_the_exit_code(self, tmp_path):
        # As in `tricolor chi g.col 2>&1 >/dev/null | true`: the budget error
        # goes to a stderr whose reader has gone before the run starts.
        gfile = write_graph_file(tmp_path, cycle_graph(25))
        src = os.path.dirname(os.path.dirname(tricolor.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "tricolor.cli", "chi", gfile],
                                  stdout=subprocess.DEVNULL, stderr=write_end, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_BUDGET


class TestExitCodeFuzz:
    """Seeded malformed inputs through ``main``: only documented exit codes."""

    @staticmethod
    def _mutate(rng, text):
        tokens = text.split(" ")
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(len(tokens))
            tokens[i] = rng.choice(["", "x", "-1", "0", "99", "1.5", "e", "p", "\n", "{", "]",
                                    "null", '"', "edge", "\u00e9"])
        return " ".join(tokens)

    def test_malformed_graphs_and_certificates(self, tmp_path, capsys):
        rng = random.Random(20261017)
        seen = set()
        prism = prism_graph()
        gfile = write_graph_file(tmp_path, prism, "prism.col")
        assert main(["color", gfile]) == EXIT_OK
        cert_text = capsys.readouterr().out
        dimacs, graph_json = write_dimacs(prism), json.dumps(graph_to_json(prism))
        col, jsn, cert = tmp_path / "f.col", tmp_path / "f.json", tmp_path / "c.json"
        # The first 60 rounds reach a negative verdict only through a problem
        # line whose edge count is not an integer, which now exits 2; round
        # 144 drops an edge behind a well-formed problem line.
        for _ in range(150):
            col.write_text(self._mutate(rng, dimacs))
            jsn.write_text(self._mutate(rng, graph_json))
            cert.write_text(self._mutate(rng, cert_text))
            runs = [[command, str(path)] for command in ("recognize", "color", "membership")
                    for path in (col, jsn)]
            runs += [["verify", gfile, str(cert)], ["verify", str(col), str(cert)]]
            for argv in runs:
                code = main(argv)
                assert code in range(5), (argv, code)
                seen.add(code)
        capsys.readouterr()
        # The mutations reach both the parsers' rejections and real runs.
        assert {EXIT_OK, EXIT_NEGATIVE, EXIT_MALFORMED} <= seen
        # Nesting deeper than the JSON decoder can recurse is malformed too.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        for command in ("recognize", "color", "membership"):
            assert main([command, str(deep)]) == EXIT_MALFORMED, command
        assert main(["verify", gfile, str(deep)]) == EXIT_MALFORMED
        # So is a vertex count too large to allocate.
        huge_col, huge_json = tmp_path / "huge.col", tmp_path / "huge.json"
        huge_col.write_text("p edge 100000000000 0\n")
        huge_json.write_text('{"n": 100000000000, "edges": []}')
        for path in (huge_col, huge_json):
            assert main(["recognize", str(path)]) == EXIT_MALFORMED, path

    def test_undecodable_and_overlong_inputs(self, tmp_path, capsys, caplog):
        # Each of the first three once escaped main as a traceback (exit 1).
        gfile = write_graph_file(tmp_path, prism_graph(), "prism.col")
        assert main(["color", gfile]) == EXIT_OK
        cert = json.loads(capsys.readouterr().out)
        bad_col, bad_json = tmp_path / "bad.col", tmp_path / "bad.json"
        long_json, bad_cert = tmp_path / "long.json", tmp_path / "bad_cert.json"
        long_cert = tmp_path / "long_cert.json"
        bad_col.write_bytes(b"p edge 2 1\ne 1 \xff\n")
        bad_json.write_bytes(b'{"n": 2, "edges": [[0, 1]]}\xff')
        long_json.write_text('{"n": ' + "9" * 5000 + ', "edges": []}')
        bad_cert.write_bytes(json.dumps(cert).encode() + b"\xff")
        long_cert.write_text(json.dumps(cert).replace('"palette": ', '"palette": ' + "9" * 5000))
        for path in (bad_col, bad_json, long_json):
            for command in ("recognize", "decompose", "color", "membership", "chi"):
                assert main([command, str(path)]) == EXIT_MALFORMED, (command, path)
            assert main(["verify", str(path), str(tmp_path / "unused.json")]) == EXIT_MALFORMED
            assert f"cannot load {path}" in caplog.text
        for path in (bad_cert, long_cert):
            assert main(["verify", gfile, str(path)]) == EXIT_MALFORMED, path
            assert f"cannot load {path}" in caplog.text
        assert capsys.readouterr().out == ""
