// Seeded inputs of every workload: the LUBM-style university graph as
// Turtle text, the Fig. 3 Q1-Q10 texts, constant pools for selective
// queries, and the two write shapes.
#ifndef WDR_PERFBENCH_INPUTS_H_
#define WDR_PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace wdr::perfbench {

// Universities in the generated graph (4 departments each by default):
// about 109k base triples and 175k closure triples.
inline constexpr int kUniversities = 64;

struct Inputs {
  std::string turtle;  // base graph, schema closed
  std::vector<std::string> fig3_names;    // "Q1" .. "Q10"
  std::vector<std::string> fig3_queries;  // SPARQL texts
  // N-Triples IRIs ("<...>") of generated individuals. The professor,
  // student and people pools are far larger than the server's 32-entry
  // plan cache and the reformulator's 256-entry memo, so selective queries
  // share no prepare work; the 256 departments exceed the plan cache.
  std::vector<std::string> professors;
  std::vector<std::string> students;
  std::vector<std::string> people;  // professors, lecturers, students
  std::vector<std::string> departments;
  // Constraint triples (N-Triples statements) that attach a fresh class
  // or property under an existing one (workload::MakeUpdateSet shapes).
  std::vector<std::string> schema_shapes;
};

Inputs MakeInputs(uint64_t seed);

// Triples each instance write inserts (and deletes).
inline constexpr size_t kWriteTriples = 8;

// Instance write `n`: inserts kWriteTriples triples about fresh
// individuals typed deep in the class hierarchy and linked only to other
// fresh individuals, and (for n > 0) deletes the ones write n-1 inserted.
// The graph size stays constant; answers of queries over generated
// constants never change, and those of Q1-Q10 are the same after every
// write.
std::string InstanceWrite(uint64_t n);

// Schema write `n`: inserts constraint n (cycling through the shapes) and,
// for n > 0, deletes constraint n-1.
std::string SchemaWrite(const Inputs& inputs, uint64_t n);

// One selective read with constants drawn from the pools.
struct Selective {
  std::string text;
  bool lookup = false;  // a point lookup on one individual
};

// The Fig. 3 pass: Q1-Q10, with Q2, Q4, Q7 and Q9 (leaf lookups, where
// per-query overhead is a large share of the cost) marked as lookups.
std::vector<Selective> Fig3Pass(const Inputs& inputs);

// The selective read pass of a server reader: a department roster
// ("persons who are members of department D") followed by four point
// lookups (advisees of a professor, courses of a student, memberships of
// a person, and the types of a person: the Q8 shape bound to a constant).
std::vector<Selective> DrawSelectivePass(const Inputs& inputs, Rng& rng);

}  // namespace wdr::perfbench

#endif  // WDR_PERFBENCH_INPUTS_H_
