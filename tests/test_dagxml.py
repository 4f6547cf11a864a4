"""Unit tests for XML encodings of DAGs and service requests."""

import pytest

from repro.core.actions import Action, ActionScope, ErrorPolicy
from repro.core.dag import ConfigDAG
from repro.core.dagxml import (
    dag_from_xml,
    dag_to_xml,
    request_from_xml,
    request_to_xml,
)
from repro.core.errors import ProtocolError
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)
from repro.shop.protocol import service_request_from_xml


def rich_dag():
    dag = ConfigDAG()
    dag.add_action(
        Action(
            "install",
            scope=ActionScope.HOST,
            command="install {pkg} v{ver}",
            params={"pkg": "vnc", "ver": 3},
            outputs=("path",),
            on_error=ErrorPolicy.RETRY,
            retries=2,
        )
    )
    dag.add_action(Action("configure", command="cfg"))
    dag.add_edge("install", "configure")
    handler = ConfigDAG().add_action(Action("cleanup", command="rm -rf tmp"))
    dag.attach_handler("configure", handler)
    return dag


class TestDagRoundtrip:
    def test_full_roundtrip_preserves_structure(self):
        dag = rich_dag()
        assert dag_from_xml(dag_to_xml(dag)) == dag

    def test_roundtrip_preserves_action_content(self):
        back = dag_from_xml(dag_to_xml(rich_dag()))
        action = back.action("install")
        assert action.scope is ActionScope.HOST
        assert action.on_error is ErrorPolicy.RETRY
        assert action.retries == 2
        assert action.outputs == ("path",)
        assert action.rendered_command() == "install vnc v3"

    def test_roundtrip_preserves_handler(self):
        back = dag_from_xml(dag_to_xml(rich_dag()))
        handler = back.handler_for("configure")
        assert handler is not None
        assert "cleanup" in handler

    def test_empty_dag_roundtrip(self):
        assert dag_from_xml(dag_to_xml(ConfigDAG())) == ConfigDAG()


class TestDagStrictness:
    def test_malformed_xml(self):
        with pytest.raises(ProtocolError):
            dag_from_xml("<dag><unclosed></dag>")

    def test_wrong_root_tag(self):
        with pytest.raises(ProtocolError):
            dag_from_xml("<graph/>")

    def test_unknown_child_rejected(self):
        with pytest.raises(ProtocolError):
            dag_from_xml("<dag><mystery/></dag>")

    def test_edge_missing_attribute(self):
        with pytest.raises(ProtocolError):
            dag_from_xml(
                '<dag><action name="a"/><edge from="a"/></dag>'
            )

    def test_cycle_in_xml_rejected(self):
        text = (
            '<dag><action name="a"/><action name="b"/>'
            '<edge from="a" to="b"/><edge from="b" to="a"/></dag>'
        )
        with pytest.raises(ProtocolError):
            dag_from_xml(text)

    def test_handler_must_contain_one_dag(self):
        text = '<dag><action name="a"/><handler for="a"/></dag>'
        with pytest.raises(ProtocolError):
            dag_from_xml(text)

    def test_bad_enum_value_rejected(self):
        text = '<dag><action name="a" scope="cloud"/></dag>'
        with pytest.raises(ProtocolError):
            dag_from_xml(text)


class TestRequestRoundtrip:
    def make_request(self):
        return CreateRequest(
            hardware=HardwareSpec(
                isa="x86", memory_mb=64, disk_gb=4.0, cpus=2
            ),
            software=SoftwareSpec(os="rh8", dag=rich_dag()),
            network=NetworkSpec(
                domain="cs.example.edu",
                proxy_host="proxy.cs.example.edu",
                proxy_port=4000,
                credentials="x509:abc",
            ),
            client_id="alice",
            vm_type="vmware",
        )

    def test_roundtrip(self):
        request = self.make_request()
        back = request_from_xml(request_to_xml(request))
        assert back.hardware == request.hardware
        assert back.network == request.network
        assert back.client_id == "alice"
        assert back.vm_type == "vmware"
        assert back.software.os == "rh8"
        assert back.software.dag == request.software.dag

    def test_defaults_when_optional_parts_missing(self):
        text = (
            '<vmplant-request service="create">'
            '<hardware memory-mb="32" disk-gb="4.0"/>'
            '<software><dag/></software>'
            "</vmplant-request>"
        )
        request = request_from_xml(text)
        assert request.client_id == "anonymous"
        assert request.vm_type is None
        assert request.network.domain == "local"
        assert not request.network.wants_vnet

    def test_missing_hardware_rejected(self):
        text = (
            '<vmplant-request service="create">'
            "<software><dag/></software></vmplant-request>"
        )
        with pytest.raises(ProtocolError):
            request_from_xml(text)

    def test_missing_software_rejected(self):
        text = (
            '<vmplant-request service="create">'
            '<hardware memory-mb="32" disk-gb="4.0"/></vmplant-request>'
        )
        with pytest.raises(ProtocolError):
            request_from_xml(text)

    def test_bad_numeric_rejected(self):
        text = (
            '<vmplant-request service="create">'
            '<hardware memory-mb="lots" disk-gb="4.0"/>'
            "<software><dag/></software></vmplant-request>"
        )
        with pytest.raises(ProtocolError):
            request_from_xml(text)

    def test_wrong_service_rejected(self):
        text = request_to_xml(self.make_request()).replace(
            'service="create"', 'service="teleport"'
        )
        with pytest.raises(ProtocolError):
            request_from_xml(text)


def _create_text(hardware='memory-mb="32" disk-gb="4.0"', network="",
                 extra="", root_attrs=""):
    return (
        f'<vmplant-request service="create"{root_attrs}>'
        f"<hardware {hardware}/>{network}"
        f"<software><dag/></software>{extra}"
        "</vmplant-request>"
    )


class TestDecoderStrictness:
    """Every malformed field surfaces as ProtocolError, never ValueError."""

    def test_bad_proxy_port_rejected(self):
        text = _create_text(network='<network proxy-port="abc"/>')
        with pytest.raises(ProtocolError, match="proxy-port"):
            request_from_xml(text)

    def test_bad_retries_rejected(self):
        text = _create_text().replace(
            "<dag/>", '<dag><action name="a" retries="x"/></dag>'
        )
        with pytest.raises(ProtocolError, match="retries"):
            request_from_xml(text)

    def test_bad_lease_rejected(self):
        text = _create_text(root_attrs=' lease-s="soon"')
        with pytest.raises(ProtocolError, match="lease-s"):
            request_from_xml(text)

    def test_bad_cpus_rejected(self):
        text = _create_text(
            hardware='memory-mb="32" disk-gb="4.0" cpus="many"'
        )
        with pytest.raises(ProtocolError):
            request_from_xml(text)

    def test_unknown_create_child_rejected(self):
        text = _create_text(extra="<payload/>")
        with pytest.raises(ProtocolError, match="payload"):
            request_from_xml(text)

    def test_duplicate_create_child_rejected(self):
        text = _create_text(
            network='<network domain="a"/><network domain="b"/>'
        )
        with pytest.raises(ProtocolError, match="duplicate"):
            request_from_xml(text)

    def test_extra_software_child_rejected(self):
        text = _create_text().replace("<dag/>", "<dag/><dag/>")
        with pytest.raises(ProtocolError):
            request_from_xml(text)

    def test_unknown_query_child_rejected(self):
        with pytest.raises(ProtocolError, match="payload"):
            service_request_from_xml(
                '<vmplant-request service="query" vmid="v">'
                '<attribute name="ip"/><payload/></vmplant-request>'
            )

    def test_unknown_destroy_child_rejected(self):
        with pytest.raises(ProtocolError, match="payload"):
            service_request_from_xml(
                '<vmplant-request service="destroy" vmid="v">'
                "<payload/></vmplant-request>"
            )

    def test_nameless_query_attribute_rejected(self):
        with pytest.raises(ProtocolError, match="attribute"):
            service_request_from_xml(
                '<vmplant-request service="query" vmid="v">'
                "<attribute/></vmplant-request>"
            )

    def test_bad_commit_flag_rejected(self):
        with pytest.raises(ProtocolError, match="commit"):
            service_request_from_xml(
                '<vmplant-request service="destroy" vmid="v"'
                ' commit="yes"/>'
            )

    def test_missing_commit_flag_means_false(self):
        service, request = service_request_from_xml(
            '<vmplant-request service="destroy" vmid="v"/>'
        )
        assert service == "destroy" and request.commit is False


class TestFastPath:
    """One parse per create; one decoded, sealed DAG per distinct DAG."""

    def test_create_parses_wire_text_once(self, monkeypatch):
        import xml.etree.ElementTree as ET

        from repro.sim.cluster import build_testbed
        from repro.workloads.requests import experiment_request

        bed = build_testbed(seed=61, n_plants=2)
        assert bed.shop.use_xml
        feeds = []

        class CountingParser(ET.XMLParser):
            def feed(self, data):
                if data.startswith("<vmplant-request"):
                    feeds.append(data)
                return super().feed(data)

        monkeypatch.setattr(ET, "XMLParser", CountingParser)
        ad = bed.run(bed.shop.create(experiment_request(32)))
        assert ad["status"] == "running"
        assert len(feeds) == 1

    def test_one_dag_decoded_once_for_100_creates(self, monkeypatch):
        from repro.core import dagxml
        from repro.shop import vmshop
        from repro.sim.cluster import build_testbed
        from repro.workloads.requests import experiment_request

        monkeypatch.setattr(dagxml, "_interned", {})
        builds = []
        build = dagxml.dag_from_element

        def counting_build(root):
            builds.append(root)
            return build(root)

        decoded = []
        decode = vmshop.service_request_from_xml

        def recording_decode(text):
            service, request = decode(text)
            decoded.append(request)
            return service, request

        monkeypatch.setattr(dagxml, "dag_from_element", counting_build)
        monkeypatch.setattr(
            vmshop, "service_request_from_xml", recording_decode
        )
        bed = build_testbed(seed=62)
        for _ in range(100):
            ad = bed.run(bed.shop.create(experiment_request(32)))
            bed.run(bed.shop.destroy(ad["vmid"]))
        assert len(builds) == 1
        assert len(decoded) == 100
        shared = decoded[0].dag
        assert shared.sealed
        assert all(request.dag is shared for request in decoded)

    def test_interned_dag_is_read_only(self):
        from repro.core.errors import DAGError

        request = CreateRequest(
            hardware=HardwareSpec(memory_mb=32),
            software=SoftwareSpec(dag=rich_dag()),
        )
        dag = request_from_xml(request_to_xml(request)).dag
        assert dag.sealed
        with pytest.raises(DAGError, match="sealed"):
            dag.add_action(Action("late"))
        with pytest.raises(DAGError, match="sealed"):
            dag.add_edge("configure", "install")
        with pytest.raises(DAGError, match="sealed"):
            dag.attach_handler("install", ConfigDAG())
        handler = dag.handler_for("configure")
        with pytest.raises(DAGError, match="sealed"):
            handler.add_action(Action("late"))
        # The caller's DAG is untouched and still mutable.
        assert not request.dag.sealed
        request.dag.add_action(Action("late"))

    def test_dag_from_xml_returns_fresh_mutable_dag(self):
        text = dag_to_xml(rich_dag())
        first, second = dag_from_xml(text), dag_from_xml(text)
        assert first is not second
        assert not first.sealed
        first.add_action(Action("late"))
        first.add_edge("configure", "late")
        assert "late" in first and "late" not in second

    def test_intern_table_is_bounded(self, monkeypatch):
        from repro.core import dagxml

        monkeypatch.setattr(dagxml, "_interned", {})
        for i in range(dagxml._INTERN_LIMIT * 2 + 1):
            dag = ConfigDAG().add_action(Action(f"step-{i}"))
            request = CreateRequest(
                hardware=HardwareSpec(memory_mb=32),
                software=SoftwareSpec(dag=dag),
            )
            request_from_xml(request_to_xml(request))
            assert len(dagxml._interned) <= dagxml._INTERN_LIMIT
