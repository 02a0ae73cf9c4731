// Synthetic DBLife dataset generator (substitute for the paper's 40 MB,
// 801,189-tuple DBLife snapshot, Fig. 8): a star schema of 5 text-bearing
// entity tables — Person, Publication, Conference, Organization, Topic — and
// 9 text-free relationship tables connecting them. Deterministic given the
// seed; guarantees the Table 2 workload terms occur in the tables the paper
// says they occur in (e.g. "Washington" in Person, Publication, and
// Organization).
#ifndef KWSDBG_DATASETS_DBLIFE_H_
#define KWSDBG_DATASETS_DBLIFE_H_

#include <cstdint>
#include <memory>

#include "common/status.h"
#include "graph/schema_graph.h"
#include "storage/database.h"

namespace kwsdbg {

/// Scale and skew knobs. Defaults produce 49,590 tuples (Scaled(1.0), which
/// rounds each entity count up by one, gives 49,621); Scaled(4.6) gives
/// 908,508, close to the paper's 801,189-tuple snapshot.
struct DblifeConfig {
  uint64_t seed = 42;
  size_t num_persons = 2000;
  size_t num_publications = 6000;
  size_t num_conferences = 60;
  size_t num_organizations = 300;
  size_t num_topics = 150;
  /// Multiplies the relationship-table cardinalities.
  double relationship_scale = 1.0;
  /// Zipf exponent for popularity-skewed attachment (authorship, interest).
  double zipf_theta = 0.8;

  /// A config scaled uniformly by `factor` (relationship scale included).
  DblifeConfig Scaled(double factor) const;
};

/// The generated database and its schema graph.
struct DblifeDataset {
  std::unique_ptr<Database> db;
  SchemaGraph schema;
};

/// Generates the dataset. Entity tables: Person(id, name),
/// Publication(id, title), Conference(id, name), Organization(id, name),
/// Topic(id, name). Relationship tables (id + two FKs each): writes,
/// coauthor_of, co_pc_member, serves_on, gave_talk, affiliated_with,
/// interested_in, published_in, about_topic. As in the real DBLife, some
/// entity pairs are connected by more than one relationship type — that is
/// what lets candidate networks chain several same-shape relationships
/// (e.g. three Person keywords at lattice level 5).
StatusOr<DblifeDataset> GenerateDblife(const DblifeConfig& config = {});

}  // namespace kwsdbg

#endif  // KWSDBG_DATASETS_DBLIFE_H_
