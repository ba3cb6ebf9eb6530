import json

from rainbowsets import cli


def run_cli(tmp_path, capsys, argv, instance):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    code = cli.main(argv + ["--input", str(path)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


class TestInputErrors:
    def test_negative_graph_n_exits_2(self, tmp_path, capsys):
        code, payload = run_cli(tmp_path, capsys, ["rainbow-matching"],
                                {"graph": {"n": -1, "edges": []}, "colors": []})
        assert code == cli.EXIT_INPUT == 2
        assert payload["status"] == "error"
        assert "graph.n" in payload["error"]

    def test_negative_network_n_exits_2(self, tmp_path, capsys):
        instance = {"network": {"n": -1, "edges": [], "sources": [], "targets": []},
                    "colors": []}
        code, payload = run_cli(tmp_path, capsys, ["rainbow-path"], instance)
        assert code == 2
        assert payload["status"] == "error"
        assert "network.n" in payload["error"]
