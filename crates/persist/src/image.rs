//! Savepoint images: serializable snapshots of a table's three stages.
//!
//! A [`TableImage`] is what a savepoint persists per table and what recovery
//! hands back: raw L1 rows, raw L2 rows (the L2 is rebuilt by appending them
//! in order — the unsorted dictionary is deterministic in arrival order),
//! and the main parts as dictionaries + code vectors ("a new version of the
//! main will be persisted on stable storage and can be used to reload the
//! main store").
//!
//! MVCC stamps are persisted raw; marks of transactions that were still in
//! flight at savepoint time resolve through the post-savepoint log replay.

use crate::codec::{Decoder, Encoder};
use hana_common::{ColumnDef, MergeStrategy, Result, RowId, Schema, TableConfig, Timestamp, Value};

/// One row version with its stamps.
#[derive(Debug, Clone, PartialEq)]
pub struct RowImage {
    /// Stable record id.
    pub row_id: RowId,
    /// Begin stamp (possibly a mark).
    pub begin: Timestamp,
    /// End stamp (possibly a mark).
    pub end: Timestamp,
    /// Row payload.
    pub values: Vec<Value>,
}

/// The L2-delta image.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeltaImage {
    /// Generation tag of the delta.
    pub generation: u64,
    /// Rows in append order.
    pub rows: Vec<RowImage>,
}

/// One column's persisted zone map: a `(min, max, has_nulls)` span for the
/// whole part plus one per 16Ki-row chunk, in code space. Persisted so
/// recovery reloads pruning metadata instead of recomputing it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ZoneImage {
    /// Whole-part span.
    pub part: (u32, u32, bool),
    /// Chunk spans in row order.
    pub chunks: Vec<(u32, u32, bool)>,
}

/// One main part's columnar image.
#[derive(Debug, Clone, PartialEq)]
pub struct PartImage {
    /// Part generation.
    pub generation: u64,
    /// Per column: `(dictionary values in code order, base, global codes)`.
    pub columns: Vec<(Vec<Value>, u32, Vec<u32>)>,
    /// Per column zone maps (parallel to `columns`).
    pub zones: Vec<ZoneImage>,
    /// Row ids.
    pub row_ids: Vec<RowId>,
    /// Begin stamps (committed).
    pub begins: Vec<Timestamp>,
    /// End stamps (possibly marks).
    pub ends: Vec<Timestamp>,
}

/// Full savepoint image of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableImage {
    /// Catalog id.
    pub table_id: u32,
    /// Schema (name + columns).
    pub schema: Schema,
    /// Lifecycle configuration.
    pub config: TableConfig,
    /// Next row id to assign.
    pub next_row_id: u64,
    /// Next structure generation to assign.
    pub next_generation: u64,
    /// L1-delta rows in logical order.
    pub l1_rows: Vec<RowImage>,
    /// The open L2-delta.
    pub l2: DeltaImage,
    /// Main chain images.
    pub main_parts: Vec<PartImage>,
    /// Leading passive parts in the chain.
    pub passive_count: usize,
    /// Archived history versions (historic tables).
    pub history: Vec<RowImage>,
}

fn encode_row(e: &mut Encoder, r: &RowImage) {
    e.u64(r.row_id.0);
    e.u64(r.begin);
    e.u64(r.end);
    e.u32(r.values.len() as u32);
    for v in &r.values {
        e.value(v);
    }
}

fn decode_row(d: &mut Decoder<'_>) -> Result<RowImage> {
    let row_id = RowId(d.u64()?);
    let begin = d.u64()?;
    let end = d.u64()?;
    let n = d.u32()? as usize;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(d.value()?);
    }
    Ok(RowImage {
        row_id,
        begin,
        end,
        values,
    })
}

fn encode_zone_entry(e: &mut Encoder, (min, max, has_nulls): (u32, u32, bool)) {
    e.u32(min);
    e.u32(max);
    e.bool(has_nulls);
}

fn decode_zone_entry(d: &mut Decoder<'_>) -> Result<(u32, u32, bool)> {
    Ok((d.u32()?, d.u32()?, d.bool()?))
}

fn encode_rows(e: &mut Encoder, rows: &[RowImage]) {
    e.u32(rows.len() as u32);
    for r in rows {
        encode_row(e, r);
    }
}

fn decode_rows(d: &mut Decoder<'_>) -> Result<Vec<RowImage>> {
    let n = d.u32()? as usize;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(decode_row(d)?);
    }
    Ok(rows)
}

/// Serialize a schema (shared with the CreateTable log record).
pub fn encode_schema(e: &mut Encoder, s: &Schema) {
    e.str(&s.name);
    e.u16(s.arity() as u16);
    for c in s.columns() {
        e.str(&c.name);
        e.data_type(c.data_type);
        e.bool(c.nullable);
        e.bool(c.unique);
    }
}

pub fn decode_schema(d: &mut Decoder<'_>) -> Result<Schema> {
    let name = d.str()?;
    let n = d.u16()? as usize;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let cname = d.str()?;
        let ty = d.data_type()?;
        let nullable = d.bool()?;
        let unique = d.bool()?;
        cols.push(ColumnDef {
            name: cname,
            data_type: ty,
            nullable,
            unique,
        });
    }
    Schema::new(name, cols)
}

pub fn encode_config(e: &mut Encoder, c: &TableConfig) {
    e.u64(c.l1_max_rows as u64);
    e.u64(c.l2_max_rows as u64);
    e.u8(match c.merge_strategy {
        MergeStrategy::Classic => 0,
        MergeStrategy::ReSorting => 1,
        MergeStrategy::Partial => 2,
        MergeStrategy::Auto => 3,
    });
    e.f64(c.active_main_max_fraction);
    e.u64(c.block_size as u64);
    e.bool(c.historic);
    e.u64(c.merge.column_parallelism as u64);
    // Formerly the merge daemon's pool size; the slot stays so the
    // layout does not change.
    e.u64(0);
    e.u64(c.scan.scan_parallelism as u64);
    match &c.partition {
        None => e.bool(false),
        Some(p) => {
            e.bool(true);
            e.str(&p.group);
            e.u32(p.hash_column);
            e.u32(p.index);
            e.u32(p.of);
        }
    }
}

pub fn decode_config(d: &mut Decoder<'_>) -> Result<TableConfig> {
    let l1_max_rows = d.u64()? as usize;
    let l2_max_rows = d.u64()? as usize;
    let merge_strategy = match d.u8()? {
        0 => MergeStrategy::Classic,
        1 => MergeStrategy::ReSorting,
        2 => MergeStrategy::Partial,
        _ => MergeStrategy::Auto,
    };
    let active_main_max_fraction = d.f64()?;
    let block_size = d.u64()? as usize;
    let historic = d.bool()?;
    let merge = hana_common::MergeConfig {
        column_parallelism: d.u64()? as usize,
    };
    d.u64()?; // the retired daemon pool-size slot
    let scan = hana_common::ScanConfig {
        scan_parallelism: d.u64()? as usize,
    };
    let partition = if d.bool()? {
        Some(hana_common::PartitionSpec {
            group: d.str()?,
            hash_column: d.u32()?,
            index: d.u32()?,
            of: d.u32()?,
        })
    } else {
        None
    };
    Ok(TableConfig {
        l1_max_rows,
        l2_max_rows,
        merge_strategy,
        active_main_max_fraction,
        block_size,
        historic,
        merge,
        scan,
        partition,
    })
}

impl TableImage {
    /// Serialize the whole image.
    pub fn encode(&self, e: &mut Encoder) {
        e.u32(self.table_id);
        encode_schema(e, &self.schema);
        encode_config(e, &self.config);
        e.u64(self.next_row_id);
        e.u64(self.next_generation);
        encode_rows(e, &self.l1_rows);
        e.u64(self.l2.generation);
        encode_rows(e, &self.l2.rows);
        e.u32(self.main_parts.len() as u32);
        for p in &self.main_parts {
            e.u64(p.generation);
            e.u16(p.columns.len() as u16);
            for (dict_vals, base, codes) in &p.columns {
                e.u32(dict_vals.len() as u32);
                for v in dict_vals {
                    e.value(v);
                }
                e.u32(*base);
                e.u32(codes.len() as u32);
                for &c in codes {
                    e.u32(c);
                }
            }
            e.u16(p.zones.len() as u16);
            for z in &p.zones {
                encode_zone_entry(e, z.part);
                e.u32(z.chunks.len() as u32);
                for &c in &z.chunks {
                    encode_zone_entry(e, c);
                }
            }
            e.u32(p.row_ids.len() as u32);
            for (i, id) in p.row_ids.iter().enumerate() {
                e.u64(id.0);
                e.u64(p.begins[i]);
                e.u64(p.ends[i]);
            }
        }
        e.u32(self.passive_count as u32);
        encode_rows(e, &self.history);
    }

    /// Deserialize one image.
    pub fn decode(d: &mut Decoder<'_>) -> Result<TableImage> {
        let table_id = d.u32()?;
        let schema = decode_schema(d)?;
        let config = decode_config(d)?;
        let next_row_id = d.u64()?;
        let next_generation = d.u64()?;
        let l1_rows = decode_rows(d)?;
        let l2_generation = d.u64()?;
        let l2_rows = decode_rows(d)?;
        let n_parts = d.u32()? as usize;
        let mut main_parts = Vec::with_capacity(n_parts);
        for _ in 0..n_parts {
            let generation = d.u64()?;
            let n_cols = d.u16()? as usize;
            let mut columns = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                let nd = d.u32()? as usize;
                let mut dict_vals = Vec::with_capacity(nd);
                for _ in 0..nd {
                    dict_vals.push(d.value()?);
                }
                let base = d.u32()?;
                let nc = d.u32()? as usize;
                let mut codes = Vec::with_capacity(nc);
                for _ in 0..nc {
                    codes.push(d.u32()?);
                }
                columns.push((dict_vals, base, codes));
            }
            let n_zones = d.u16()? as usize;
            let mut zones = Vec::with_capacity(n_zones);
            for _ in 0..n_zones {
                let part = decode_zone_entry(d)?;
                let n_chunks = d.u32()? as usize;
                let mut chunks = Vec::with_capacity(n_chunks);
                for _ in 0..n_chunks {
                    chunks.push(decode_zone_entry(d)?);
                }
                zones.push(ZoneImage { part, chunks });
            }
            let n_rows = d.u32()? as usize;
            let mut row_ids = Vec::with_capacity(n_rows);
            let mut begins = Vec::with_capacity(n_rows);
            let mut ends = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                row_ids.push(RowId(d.u64()?));
                begins.push(d.u64()?);
                ends.push(d.u64()?);
            }
            main_parts.push(PartImage {
                generation,
                columns,
                zones,
                row_ids,
                begins,
                ends,
            });
        }
        let passive_count = d.u32()? as usize;
        let history = decode_rows(d)?;
        Ok(TableImage {
            table_id,
            schema,
            config,
            next_row_id,
            next_generation,
            l1_rows,
            l2: DeltaImage {
                generation: l2_generation,
                rows: l2_rows,
            },
            main_parts,
            passive_count,
            history,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hana_common::DataType;

    fn sample() -> TableImage {
        let schema = Schema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::Int).unique(),
                ColumnDef::new("city", DataType::Str),
            ],
        )
        .unwrap();
        TableImage {
            table_id: 7,
            schema,
            config: TableConfig::small().with_history(),
            next_row_id: 42,
            next_generation: 3,
            l1_rows: vec![RowImage {
                row_id: RowId(40),
                begin: 10,
                end: u64::MAX,
                values: vec![Value::Int(1), Value::str("a")],
            }],
            l2: DeltaImage {
                generation: 2,
                rows: vec![
                    RowImage {
                        row_id: RowId(38),
                        begin: 8,
                        end: u64::MAX,
                        values: vec![Value::Int(2), Value::str("b")],
                    },
                    RowImage {
                        row_id: RowId(39),
                        begin: 9,
                        end: 11,
                        values: vec![Value::Int(3), Value::Null],
                    },
                ],
            },
            main_parts: vec![PartImage {
                generation: 1,
                columns: vec![
                    (vec![Value::Int(5), Value::Int(9)], 0, vec![0, 1]),
                    (vec![Value::str("x")], 0, vec![0, 1]), // code 1 = NULL
                ],
                zones: vec![
                    ZoneImage {
                        part: (0, 1, false),
                        chunks: vec![(0, 1, false)],
                    },
                    ZoneImage {
                        part: (0, 0, true),
                        chunks: vec![(0, 0, true)],
                    },
                ],
                row_ids: vec![RowId(1), RowId(2)],
                begins: vec![3, 4],
                ends: vec![u64::MAX, u64::MAX],
            }],
            passive_count: 1,
            history: vec![RowImage {
                row_id: RowId(0),
                begin: 1,
                end: 2,
                values: vec![Value::Int(0), Value::str("old")],
            }],
        }
    }

    #[test]
    fn image_round_trip() {
        let img = sample();
        let mut e = Encoder::new();
        img.encode(&mut e);
        let bytes = e.into_bytes();
        let got = TableImage::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(got, img);
    }

    #[test]
    fn empty_table_image_round_trip() {
        let schema = Schema::new("t", vec![ColumnDef::new("x", DataType::Int)]).unwrap();
        let img = TableImage {
            table_id: 0,
            schema,
            config: TableConfig::default(),
            next_row_id: 0,
            next_generation: 1,
            l1_rows: vec![],
            l2: DeltaImage::default(),
            main_parts: vec![],
            passive_count: 0,
            history: vec![],
        };
        let mut e = Encoder::new();
        img.encode(&mut e);
        let bytes = e.into_bytes();
        assert_eq!(TableImage::decode(&mut Decoder::new(&bytes)).unwrap(), img);
    }

    #[test]
    fn partition_spec_rides_the_config_codec() {
        let mut img = sample();
        img.config.partition = Some(hana_common::PartitionSpec {
            group: "sales".into(),
            hash_column: 0,
            index: 3,
            of: 8,
        });
        let mut e = Encoder::new();
        img.encode(&mut e);
        let bytes = e.into_bytes();
        let got = TableImage::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(got, img);
        assert_eq!(got.config.partition.unwrap().of, 8);
    }

    #[test]
    fn truncated_image_errors() {
        let img = sample();
        let mut e = Encoder::new();
        img.encode(&mut e);
        let bytes = e.into_bytes();
        assert!(TableImage::decode(&mut Decoder::new(&bytes[..bytes.len() / 2])).is_err());
    }
}
