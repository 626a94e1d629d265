//! End-to-end over raw CSV files on disk — QueryER's "directly used over
//! raw data files" mode (Sec. 1).

use queryer::core::engine::{ExecMode, QueryEngine};
use queryer::prelude::*;
use queryer::storage::{csv, StorageError};

#[test]
fn csv_file_roundtrip_and_query() {
    let dir = std::env::temp_dir().join(format!("queryer_csv_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("products.csv");
    std::fs::write(
        &path,
        "id,name,vendor\n\
         0,espresso machine x200,acme\n\
         1,espresso machine x-200,acme\n\
         2,\"grinder, conical\",initech\n\
         3,kettle,globex\n",
    )
    .unwrap();

    let mut engine = QueryEngine::new(ErConfig::default());
    engine.register_csv_path("products", &path).unwrap();

    let r = engine
        .execute("SELECT DEDUP name FROM products WHERE vendor = 'acme'")
        .unwrap();
    assert_eq!(r.rows.len(), 1, "the two x200 variants group: {:?}", r.rows);
    assert!(r.rows[0][0].render().contains('|'));

    // Write results back out as CSV and re-read them.
    let mut out = Table::new("result", Schema::of_strings(&["name"]));
    for row in &r.rows {
        out.push_row(vec![Value::str(row[0].render())]).unwrap();
    }
    let out_path = dir.join("result.csv");
    csv::table_to_csv_path(&out, &out_path).unwrap();
    let back =
        csv::table_from_csv_path("result", Schema::of_strings(&["name"]), &out_path).unwrap();
    assert_eq!(back.len(), 1);
    assert_eq!(
        back.record(0).unwrap().value(0),
        &out.record(0).unwrap().values[0]
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn csv_path_registers_the_rows_its_text_does() {
    let text = "id,title,year\n0,\"entity resolution, revisited\",2008\n1,query plans,\n";
    let dir = std::env::temp_dir().join(format!("queryer_csv_path_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pubs.csv");
    std::fs::write(&path, text).unwrap();

    let mut from_path = QueryEngine::new(ErConfig::default());
    from_path.register_csv_path("pubs", &path).unwrap();
    let mut from_str = QueryEngine::new(ErConfig::default());
    from_str.register_csv_str("pubs", text).unwrap();
    let (a, b) = (
        from_path.table("pubs").unwrap(),
        from_str.table("pubs").unwrap(),
    );
    assert_eq!(a.schema().fields(), b.schema().fields());
    assert_eq!(a.records(), b.records());
    assert_eq!(a.len(), 2);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_csv_path_is_an_open_error() {
    let path = std::env::temp_dir().join(format!("queryer_no_such_{}.csv", std::process::id()));
    let mut engine = QueryEngine::new(ErConfig::default());
    let err = engine.register_csv_path("nope", &path).unwrap_err();
    match err {
        queryer::core::CoreError::Storage(StorageError::Io { context, source }) => {
            assert!(context.starts_with("opening "), "{context}");
            assert_eq!(source.kind(), std::io::ErrorKind::NotFound);
        }
        other => panic!("expected an I/O error, got {other:?}"),
    }
    assert!(engine.table_names().is_empty(), "nothing registered");
}

#[test]
fn quoted_fields_survive_the_whole_pipeline() {
    let mut engine = QueryEngine::new(ErConfig::default());
    engine
        .register_csv_str("t", "id,descr\n0,\"a, quoted \"\"value\"\"\"\n1,plain\n")
        .unwrap();
    let r = engine
        .execute_with("SELECT descr FROM t", ExecMode::Plain)
        .unwrap();
    assert_eq!(r.rows[0][0].render(), "a, quoted \"value\"");
}
