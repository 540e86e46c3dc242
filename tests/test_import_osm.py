"""OSM XML import parity: the reference fixture (committed as
tests/data/test-small.osm) and a synthetic fixture with ways/relations/nesting
drive the full import pipeline (parse -> assemble -> reverse membership -> tag
encode) into a queryable FeatureRepo (reference reader:
src/osm/reader.go:40-112)."""

import os

import numpy as np
import pytest

from simple_osm_queries_ray.pipelines.import_osm import import_osm
from simple_osm_queries_ray.pipelines.query import QueryEngine

REF_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "test-small.osm")

WAYREL_XML = """<?xml version='1.0' encoding='UTF-8'?>
<osm version='0.6' generator='test'>
  <node id='1' lat='53.10' lon='9.10'><tag k='kind' v='a' /></node>
  <node id='2' lat='53.12' lon='9.32'><tag k='kind' v='b' /></node>
  <node id='3' lat='53.31' lon='9.12'><tag k='kind' v='a' /></node>
  <node id='4' lat='53.52' lon='9.55'><tag k='kind' v='c' /></node>
  <way id='10'>
    <nd ref='1' /><nd ref='2' />
    <tag k='highway' v='primary' />
  </way>
  <way id='11'>
    <nd ref='3' /><nd ref='4' /><nd ref='999' />
    <tag k='highway' v='residential' />
  </way>
  <relation id='20'>
    <member type='way' ref='10' role='' />
    <member type='node' ref='3' role='' />
    <tag k='type' v='route' />
  </relation>
  <relation id='21'>
    <member type='relation' ref='20' role='' />
    <member type='node' ref='4' role='' />
    <tag k='type' v='superroute' />
  </relation>
</osm>
"""


@pytest.fixture(scope="module")
def ref_repo():
    return import_osm(REF_FIXTURE)


@pytest.fixture(scope="module")
def wayrel_repo(tmp_path_factory):
    p = tmp_path_factory.mktemp("osm") / "wayrel.osm"
    p.write_text(WAYREL_XML)
    return import_osm(str(p))


def ids(ds):
    df = ds.to_pandas()
    return set(df["id"]) if "id" in df.columns else set()


def test_reference_fixture_nodes(ref_repo):
    eng = QueryEngine(ref_repo)
    assert ids(eng.execute_string("bbox(9.9,53.5,9.94,53.6).nodes{natural=tree}")) == {1}
    assert ids(eng.execute_string("bbox(9.9,53.5,9.94,53.6).nodes{amenity=bench}")) == {2, 3}
    assert ids(
        eng.execute_string("bbox(9.9,53.5,9.94,53.6).nodes{amenity=bench AND backrest=yes}")
    ) == {3}
    # bbox excluding the nodes' cell yields nothing
    assert ids(eng.execute_string("bbox(10.5,54.0,10.6,54.1).nodes{natural=tree}")) == set()


def test_reference_fixture_tag_dictionary(ref_repo):
    ti = ref_repo.tag_index
    ki = ti.key_index("amenity")
    assert ti.value_string(ki, ti.value_index(ki, "bench")) == "bench"


def test_way_assembly(wayrel_repo):
    ways = wayrel_repo.ways.to_pandas().set_index("id")
    assert list(ways.loc[10, "node_ids"]) == [1, 2]
    # unknown ref 999 dropped
    assert list(ways.loc[11, "node_ids"]) == [3, 4]
    np.testing.assert_allclose(
        [ways.loc[10, "minlon"], ways.loc[10, "maxlon"]], [9.10, 9.32]
    )
    # way cells = union of member node cells
    assert set(ways.loc[11, "cells"]) == {91 * 100_000 + 533, 95 * 100_000 + 535}


def test_relation_assembly_and_nesting(wayrel_repo):
    rels = wayrel_repo.relations.to_pandas().set_index("id")
    assert list(rels.loc[20, "way_ids"]) == [10]
    assert list(rels.loc[20, "node_ids"]) == [3]
    assert list(rels.loc[21, "child_relation_ids"]) == [20]
    assert list(rels.loc[20, "parent_relation_ids"]) == [21]
    # parent bbox absorbs the child relation's bbox (node 1..3 + way 10)
    np.testing.assert_allclose(
        [rels.loc[21, "minlon"], rels.loc[21, "minlat"]], [9.10, 53.10]
    )
    np.testing.assert_allclose(
        [rels.loc[21, "maxlon"], rels.loc[21, "maxlat"]], [9.55, 53.52]
    )


def test_imported_graph_queries(wayrel_repo):
    eng = QueryEngine(wayrel_repo)
    bb = "bbox(9.0,53.0,10.0,54.0)"
    assert ids(eng.execute_string(bb + ".ways{highway=primary}")) == {10}
    # reverse membership: nodes on a primary way
    assert ids(eng.execute_string(bb + ".nodes{this.ways{highway=primary}}")) == {1, 2}
    # relation membership probes in both directions
    assert ids(eng.execute_string(bb + ".relations{this.ways{highway=primary}}")) == {20}
    assert ids(eng.execute_string(bb + ".relations{this.child_relations{type=route}}")) == {21}
    assert ids(eng.execute_string(bb + ".relations{this.relations{type=superroute}}")) == {20}
    # nested two-level this over imported data
    assert ids(
        eng.execute_string(bb + ".relations{this.ways{this.nodes{kind=b}}}")
    ) == {20}


def test_pbf_round_trip(tmp_path):
    """write_osm_pbf -> read_osm_pbf reproduces the element table exactly."""
    from simple_osm_queries_ray.sources.osm_pbf import read_osm_pbf, write_osm_pbf
    from simple_osm_queries_ray.sources.osm_xml import parse_osm_xml_bytes

    elems = parse_osm_xml_bytes(WAYREL_XML.encode())
    p = str(tmp_path / "wayrel.osm.pbf")
    write_osm_pbf(p, elems)
    back = read_osm_pbf(p).to_pandas().sort_values(["etype", "id"]).reset_index(drop=True)
    orig = elems.to_pandas().sort_values(["etype", "id"]).reset_index(drop=True)
    assert len(back) == len(orig)
    for col in ["etype", "id"]:
        assert list(back[col]) == list(orig[col])
    # coords survive the 100-nanodegree granularity round trip exactly
    # (fixture coords are multiples of 1e-2 degrees)
    for col in ["lon", "lat"]:
        a = back[col].to_numpy(dtype=float)
        b = orig[col].to_numpy(dtype=float)
        np.testing.assert_allclose(a, b, atol=1e-7, equal_nan=True)
    for col in ["tag_keys_str", "tag_vals_str", "refs", "member_nodes", "member_ways", "member_rels"]:
        assert [list(x) for x in back[col]] == [list(x) for x in orig[col]]


def test_pbf_import_matches_xml_import(tmp_path, wayrel_repo):
    """Importing the PBF flavour of the fixture answers queries identically."""
    from simple_osm_queries_ray.sources.osm_pbf import write_osm_pbf
    from simple_osm_queries_ray.sources.osm_xml import parse_osm_xml_bytes

    p = str(tmp_path / "wayrel.osm.pbf")
    write_osm_pbf(p, parse_osm_xml_bytes(WAYREL_XML.encode()))
    repo = import_osm(p)
    eng = QueryEngine(repo)
    eng_xml = QueryEngine(wayrel_repo)
    for q in [
        "bbox(9.0,53.0,10.0,54.0).ways{highway=primary}",
        "bbox(9.0,53.0,10.0,54.0).nodes{this.ways{highway=primary}}",
        "bbox(9.0,53.0,10.0,54.0).relations{this.child_relations{type=route}}",
        "bbox(9.0,53.0,10.0,54.0).relations{rtype=route}",
    ]:
        assert ids(eng.execute_string(q)) == ids(eng_xml.execute_string(q)), q


def test_way_geojson_linestring(wayrel_repo):
    """Ways stream as LineStrings over their member coords (reference
    grid_reader.go:394-404), not bbox polygons."""
    from simple_osm_queries_ray.parser import parse_query
    from simple_osm_queries_ray.sources.geojson import iter_features

    eng = QueryEngine(wayrel_repo)
    q = parse_query("bbox(9.0,53.0,10.0,54.0).ways{highway=primary}", wayrel_repo.tag_index)
    ds = eng.execute_statement(q.statements[0], project=False)
    feats = list(iter_features(ds, wayrel_repo.tag_index, "way"))
    assert len(feats) == 1
    g = feats[0]["geometry"]
    assert g["type"] == "LineString"
    assert g["coordinates"] == [[9.10, 53.10], [9.32, 53.12]]
    assert feats[0]["properties"]["highway"] == "primary"


def test_compressed_xml_import_matches_plain(tmp_path, ref_repo):
    import bz2
    import gzip

    raw = open(REF_FIXTURE, "rb").read()
    bz = tmp_path / "small.osm.bz2"
    bz.write_bytes(bz2.compress(raw))
    gz = tmp_path / "small.osm.gz"
    gz.write_bytes(gzip.compress(raw))

    plain_nodes = ref_repo.nodes.to_pandas().sort_values("id").reset_index(drop=True)
    for path in (bz, gz):
        repo = import_osm(str(path))
        got = repo.nodes.to_pandas().sort_values("id").reset_index(drop=True)
        assert got["id"].tolist() == plain_nodes["id"].tolist()
        assert got["lon"].tolist() == plain_nodes["lon"].tolist()


OSC_DELTA = """<osmChange version="0.6">
  <create>
    <node id="99" lon="9.915" lat="53.56">
      <tag k="natural" v="tree"/>
    </node>
  </create>
  <modify>
    <node id="3" lon="9.92" lat="53.55">
      <tag k="amenity" v="bench"/>
      <tag k="backrest" v="no"/>
    </node>
  </modify>
  <delete>
    <node id="2"/>
  </delete>
</osmChange>
"""


def test_osc_change_merge(tmp_path):
    from simple_osm_queries_ray.pipelines.import_osm import import_osm_with_changes

    osc = tmp_path / "delta.osc"
    osc.write_text(OSC_DELTA)
    repo = import_osm_with_changes(REF_FIXTURE, str(osc))
    eng = QueryEngine(repo)
    bb = "bbox(9.9,53.5,9.94,53.6)"
    # node 99 created, node 1 untouched
    assert ids(eng.execute_string(f"{bb}.nodes{{natural=tree}}")) == {1, 99}
    # node 2 deleted, node 3 still a bench
    assert ids(eng.execute_string(f"{bb}.nodes{{amenity=bench}}")) == {3}
    # node 3's modify REPLACED the element: backrest flipped to no
    assert ids(eng.execute_string(f"{bb}.nodes{{backrest=yes}}")) == set()
    assert ids(eng.execute_string(f"{bb}.nodes{{backrest=no}}")) == {3}


OSC_DELTA_2 = """<osmChange version="0.6">
  <modify>
    <node id="3" lon="9.921" lat="53.551">
      <tag k="amenity" v="bench"/>
      <tag k="backrest" v="separate"/>
    </node>
  </modify>
  <modify>
    <node id="99" lon="9.916" lat="53.561">
      <tag k="natural" v="tree"/>
      <tag k="height" v="12"/>
    </node>
  </modify>
</osmChange>
"""


def test_osc_sequential_deltas_last_write_wins(tmp_path):
    """An element modified in BOTH deltas (or created then modified) must
    surface exactly once with the LAST delta's state — standard sequential
    minutely-diff semantics; naive append duplicated it."""
    from simple_osm_queries_ray.pipelines.import_osm import import_osm_with_changes

    osc1 = tmp_path / "d1.osc"
    osc1.write_text(OSC_DELTA)
    osc2 = tmp_path / "d2.osc"
    osc2.write_text(OSC_DELTA_2)
    repo = import_osm_with_changes(REF_FIXTURE, [str(osc1), str(osc2)])
    nodes = repo.nodes.to_pandas()
    # exactly one row each for the twice-touched elements
    assert (nodes["id"] == 3).sum() == 1
    assert (nodes["id"] == 99).sum() == 1
    eng = QueryEngine(repo)
    bb = "bbox(9.9,53.5,9.94,53.6)"
    # final states come from delta 2
    assert ids(eng.execute_string(f"{bb}.nodes{{backrest=separate}}")) == {3}
    assert ids(eng.execute_string(f"{bb}.nodes{{backrest=no}}")) == set()
    assert ids(eng.execute_string(f"{bb}.nodes{{height=12}}")) == {99}
    # delta-1 delete still holds
    assert ids(eng.execute_string(f"{bb}.nodes{{amenity=bench}}")) == {3}


def test_write_osm_xml_shards_roundtrip(tmp_path):
    """write_osm_xml_shards -> read_osm_xml reproduces ids, repr-exact
    coordinates and attribute-escaped tag values."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from simple_osm_queries_ray.sources.osm_xml import (
        ETYPE_NODE,
        read_osm_xml,
        write_osm_xml_shards,
    )

    tbl = pa.table(
        {
            "id": pa.array([1, 2, 3], type=pa.int64()),
            "lon": pa.array([9.123456789012345, -0.1, 180.0]),
            "lat": pa.array([53.000000000000014, 0.0, -90.0]),
            "name": pa.array(['a"b<c>&d', "plain", None]),
        }
    )
    paths = write_osm_xml_shards(ray.data.from_arrow(tbl), str(tmp_path))
    got = (
        read_osm_xml(paths)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    assert (got["etype"] == ETYPE_NODE).all()
    assert got["id"].tolist() == [1, 2, 3]
    assert got["lon"].tolist() == tbl["lon"].to_pylist()  # bit-exact
    assert got["lat"].tolist() == tbl["lat"].to_pylist()
    assert got["tag_vals_str"].tolist()[0] == ['a"b<c>&d']
    assert len(got["tag_keys_str"].tolist()[2]) == 0  # None tag omitted


def test_pbf_writer_chunks_node_blocks(tmp_path):
    """write_osm_pbf must honor nodes_per_block: multiple DenseNodes blobs
    (per-blob string tables, restarted deltas) so blob-parallel reads have
    real parallelism (r04 review: the parameter was dead)."""
    import numpy as np
    import pyarrow as pa

    from simple_osm_queries_ray.sources.osm_pbf import read_osm_pbf, write_osm_pbf

    n = 25
    elems = pa.table(
        {
            "etype": pa.array(np.zeros(n, dtype=np.int64)),
            "id": pa.array(np.arange(1, n + 1, dtype=np.int64)),
            "lon": pa.array(np.linspace(9.0, 10.0, n)),
            "lat": pa.array(np.linspace(53.0, 54.0, n)),
            "refs": pa.array([[]] * n, type=pa.list_(pa.int64())),
            "member_nodes": pa.array([[]] * n, type=pa.list_(pa.int64())),
            "member_ways": pa.array([[]] * n, type=pa.list_(pa.int64())),
            "member_rels": pa.array([[]] * n, type=pa.list_(pa.int64())),
            "tag_keys_str": pa.array([["k"]] * n, type=pa.list_(pa.string())),
            "tag_vals_str": pa.array([["v"]] * n, type=pa.list_(pa.string())),
        }
    )
    path = str(tmp_path / "chunked.osm.pbf")
    write_osm_pbf(path, elems, nodes_per_block=10)
    # 25 nodes at 10/block -> 3 OSMData blobs (the module's own scanner)
    from simple_osm_queries_ray.sources.osm_pbf import scan_blob_spans

    n_data = sum(1 for _o, _s, t in scan_blob_spans(path) if t == "OSMData")
    assert n_data == 3
    got = read_osm_pbf(path).to_pandas().sort_values("id").reset_index(drop=True)
    assert len(got) == n
    assert list(got["id"]) == list(range(1, n + 1))


def test_synthetic_pbf_shards_import_end_to_end(tmp_path):
    """The import-bench fixture (sources/synthetic_pbf.py) round-trips
    through the sharded PBF reader and the full import pipeline: element
    counts, way topology (5 consecutive node refs), relation membership,
    and a queryable repo."""
    import numpy as np

    from simple_osm_queries_ray.pipelines.import_osm import import_osm
    from simple_osm_queries_ray.sources.synthetic_pbf import (
        NODES_PER_WAY,
        WAYS_PER_REL,
        shard_elements,
        write_synthetic_pbf,
    )

    n = 40_000
    paths, nbytes = write_synthetic_pbf(str(tmp_path / "fix"), n, nodes_per_shard=20_000)
    assert len(paths) == 2 and nbytes > 0

    # decode equals the generator's element tables, id-for-id
    from simple_osm_queries_ray.sources.osm_pbf import read_osm_pbf

    back = read_osm_pbf(paths).to_pandas()
    assert len(back) == n + n // NODES_PER_WAY + n // NODES_PER_WAY // WAYS_PER_REL
    ref = shard_elements(1, 20_000).to_pandas()
    b_nodes = back[(back.etype == 0) & (back.id >= 20_000)].sort_values("id")
    r_nodes = ref[ref.etype == 0].sort_values("id")
    assert np.allclose(b_nodes.lon.to_numpy(), r_nodes.lon.to_numpy(), atol=1e-7)
    w = back[back.etype == 1].sort_values("id").iloc[0]
    assert list(w.refs) == list(range(NODES_PER_WAY))
    r = back[back.etype == 2].sort_values("id").iloc[0]
    assert len(r.member_ways) == WAYS_PER_REL and len(r.member_nodes) == 3

    repo = import_osm(paths)
    assert repo.nodes.count() == n
    assert repo.ways.count() == n // NODES_PER_WAY
    assert repo.relations.count() == n // NODES_PER_WAY // WAYS_PER_REL
    # assembled ways carry real member coordinates
    wdf = repo.ways.to_pandas().sort_values("id").head(1)
    assert len(wdf.iloc[0]["node_lons"]) == NODES_PER_WAY


def test_read_elements_rejects_mixed_formats(tmp_path):
    import pytest

    from simple_osm_queries_ray.pipelines.import_osm import _read_elements

    with pytest.raises(ValueError, match="mix"):
        _read_elements(["a.osm.pbf", "b.osm"])


def test_refresh_evolves_dictionary_without_reencode_cascade(tmp_path):
    """A refresh source introducing a brand-new tag key must NOT rewrite
    partitions of untouched features: cli refresh rebuilds against the
    index's persisted dictionary (TagIndex.extended_with), so existing key
    indices stay stable. Without the evolved dictionary, a new key 'aaa'
    (sorting before every existing key) would shift ALL key indices and
    cascade a rewrite of every partition."""
    import glob
    import json
    import os

    from simple_osm_queries_ray import cli
    from simple_osm_queries_ray.functions.tags import TagIndex

    base = str(tmp_path / "base.osm")
    with open(base, "w") as f:
        f.write(WAYREL_XML)
    idx = str(tmp_path / "idx")
    assert cli.main(["import", base, idx]) == 0
    ti0 = TagIndex.load(os.path.join(idx, "tag-index"))
    mtimes0 = {f: os.path.getmtime(f) for f in glob.glob(f"{idx}/*/pid=*/*.parquet")}

    # node 1 gains a new tag with a key sorting before everything
    evolved_xml = WAYREL_XML.replace(
        "<node id='1' lat='53.10' lon='9.10'><tag k='kind' v='a' /></node>",
        "<node id='1' lat='53.10' lon='9.10'><tag k='kind' v='a' />"
        "<tag k='aaa' v='new' /></node>",
    )
    v2 = str(tmp_path / "v2.osm")
    with open(v2, "w") as f:
        f.write(evolved_xml)
    assert cli.main(["refresh", v2, idx]) == 0

    ti1 = TagIndex.load(os.path.join(idx, "tag-index"))
    # existing key indices unchanged; new key appended at the end
    for k in ti0.keys:
        assert ti1.key_index(k) == ti0.key_index(k)
    assert ti1.key_index("aaa") == len(ti0.keys)
    # untouched families rewrote nothing
    for f, t in mtimes0.items():
        if "/way/" in f or "/relation/" in f:
            assert os.path.getmtime(f) == t, f


def test_way_with_all_unknown_refs_is_dropped(tmp_path):
    """Fused tag-attach parity with the old two-join path: a way whose refs
    all point at absent nodes must NOT appear (its tag row alone cannot
    create an empty way), while partially-resolvable ways keep the subset."""
    xml = """<?xml version='1.0' encoding='UTF-8'?>
<osm version='0.6' generator='t'>
  <node id='1' lat='53.1' lon='9.1'><tag k='kind' v='a' /></node>
  <node id='2' lat='53.2' lon='9.2'><tag k='kind' v='b' /></node>
  <way id='10'><nd ref='1' /><nd ref='2' /><tag k='highway' v='x' /></way>
  <way id='11'><nd ref='777' /><nd ref='888' /><tag k='highway' v='y' /></way>
  <way id='12'><nd ref='2' /><nd ref='999' /><tag k='highway' v='z' /></way>
</osm>
"""
    p = str(tmp_path / "t.osm")
    with open(p, "w") as f:
        f.write(xml)
    from simple_osm_queries_ray.pipelines.import_osm import import_osm

    ways = import_osm(p).ways.to_pandas().sort_values("id").reset_index(drop=True)
    assert list(ways["id"]) == [10, 12]
    assert list(ways.loc[ways["id"] == 12, "node_ids"].iloc[0]) == [2]
    assert list(ways.loc[ways["id"] == 10, "tag_keys_str"].iloc[0]) == ["highway"]
