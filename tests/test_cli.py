import json

import pytest

from rainbowsets import cli


def run_cli(tmp_path, capsys, argv, instance):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    code = cli.main(argv + ["--input", str(path)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


class TestInputErrors:
    @pytest.mark.parametrize("argv, instance, field", [
        pytest.param(["rainbow-matching"], {"graph": {"n": -1, "edges": []}, "colors": []},
                     "graph.n", id="graph-n-negative"),
        pytest.param(["rainbow-path"],
                     {"network": {"n": -1, "edges": [], "sources": [], "targets": []},
                      "colors": []},
                     "network.n", id="network-n-negative"),
        pytest.param(["hall"], {"ground_size": 6, "colors": [5]},
                     "instance.colors[0]", id="colors-scalar"),
        pytest.param(["rainbow-matching"], {"graph": {"n": 2, "edges": [[0]]}, "colors": [[0]]},
                     "instance.graph.edges[0]", id="edge-short"),
        pytest.param(["rainbow-matching"],
                     {"graph": {"n": 2, "edges": [[0, 1]], "bipartition": 5}, "colors": [[0]]},
                     "instance.graph.bipartition", id="bipartition-scalar"),
    ])
    def test_malformed_instance_exits_2(self, tmp_path, capsys, argv, instance, field):
        code, payload = run_cli(tmp_path, capsys, argv, instance)
        assert code == cli.EXIT_INPUT == 2
        assert payload["status"] == "error"
        assert field in payload["error"]
