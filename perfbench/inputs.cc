#include "inputs.h"

#include "io/turtle_writer.h"
#include "reformulation/reformulator.h"
#include "schema/vocabulary.h"
#include "workload/queries.h"
#include "workload/university.h"
#include "workload/updates.h"

namespace wdr::perfbench {
namespace {

namespace univ = workload::univ;

constexpr const char* kFreshNs = "http://wdr.example.org/fresh#";
constexpr size_t kSchemaShapes = 64;

std::string Iri(const std::string& iri) { return "<" + iri + ">"; }

// SPARQL text of one workload query (its constants are IRIs).
std::string ToSparql(const query::BgpQuery& q, const rdf::Dictionary& dict) {
  std::string text = "SELECT";
  if (q.distinct()) text += " DISTINCT";
  for (query::VarId v : q.projection()) text += " ?" + q.var_name(v);
  text += " WHERE {";
  bool first = true;
  for (const query::TriplePattern& atom : q.atoms()) {
    if (!first) text += " .";
    first = false;
    for (const query::PatternTerm* term : {&atom.s, &atom.p, &atom.o}) {
      text += ' ';
      text += term->is_var() ? "?" + q.var_name(term->var)
                             : dict.term(term->id).ToNTriples();
    }
  }
  text += " }";
  return text;
}

// Subjects typed (explicitly) with any of `classes`, in store order.
std::vector<std::string> Instances(const rdf::Graph& graph,
                                   const schema::Vocabulary& vocab,
                                   std::initializer_list<const char*> classes) {
  std::vector<std::string> out;
  for (const char* c : classes) {
    const rdf::TermId class_id =
        graph.dict().Lookup(rdf::Term::Iri(std::string(c)));
    if (class_id == rdf::kNullTermId) continue;
    graph.store().Match(rdf::kNullTermId, vocab.type, class_id,
                        [&](const rdf::Triple& t) {
                          out.push_back(graph.dict().term(t.s).ToNTriples());
                        });
  }
  return out;
}

template <typename T>
const T& Pick(const std::vector<T>& pool, Rng& rng) {
  return pool[static_cast<size_t>(
      rng.Uniform(0, static_cast<int64_t>(pool.size()) - 1))];
}

// The kWriteTriples triples of instance batch `n`.
std::string InstanceBatch(uint64_t n) {
  const std::string id = std::string("w") + std::to_string(n);
  const std::string prof = Iri(std::string(kFreshNs) + "prof_" + id);
  const std::string dept = Iri(std::string(kFreshNs) + "dept_" + id);
  const std::string univ_iri = Iri(std::string(kFreshNs) + "univ_" + id);
  const std::string student = Iri(std::string(kFreshNs) + "student_" + id);
  const std::string course = Iri(std::string(kFreshNs) + "course_" + id);
  const std::string type = Iri(schema::iri::kType);
  return prof + " " + type + " " + Iri(univ::kFullProfessor) + " . " +
         prof + " " + Iri(univ::kHeadOf) + " " + dept + " . " +
         dept + " " + type + " " + Iri(univ::kDepartment) + " . " +
         prof + " " + Iri(univ::kDoctoralDegreeFrom) + " " + univ_iri + " . " +
         student + " " + type + " " + Iri(univ::kPhdStudent) + " . " +
         student + " " + Iri(univ::kAdvisor) + " " + prof + " . " +
         student + " " + Iri(univ::kTakesCourse) + " " + course + " . " +
         course + " " + type + " " + Iri(univ::kGraduateCourse) + " .";
}

}  // namespace

Inputs MakeInputs(uint64_t seed) {
  workload::UniversityConfig config;
  config.seed = seed;
  config.universities = kUniversities;
  workload::UniversityData data = workload::GenerateUniversityData(config);
  reformulation::CloseSchema(data.graph, data.vocab);

  Inputs inputs;
  inputs.turtle = io::WriteTurtle(data.graph);
  for (const workload::NamedQuery& nq :
       workload::StandardQuerySet(data.graph.dict())) {
    inputs.fig3_names.push_back(nq.name);
    inputs.fig3_queries.push_back(ToSparql(nq.query, data.graph.dict()));
  }

  inputs.professors =
      Instances(data.graph, data.vocab,
                {univ::kFullProfessor, univ::kAssociateProfessor,
                 univ::kAssistantProfessor});
  inputs.students = Instances(
      data.graph, data.vocab,
      {univ::kUndergraduateStudent, univ::kGraduateStudent, univ::kPhdStudent});
  inputs.people = inputs.professors;
  for (const std::string& lecturer :
       Instances(data.graph, data.vocab, {univ::kLecturer})) {
    inputs.people.push_back(lecturer);
  }
  inputs.people.insert(inputs.people.end(), inputs.students.begin(),
                       inputs.students.end());
  inputs.departments = Instances(data.graph, data.vocab, {univ::kDepartment});

  Rng rng(seed ^ 0x5c4e3a11ull);
  const workload::UpdateSet updates =
      workload::MakeUpdateSet(data.graph, data.vocab, kSchemaShapes, rng);
  for (const rdf::Triple& t : updates.schema_insertions) {
    const rdf::Dictionary& dict = data.graph.dict();
    inputs.schema_shapes.push_back(dict.term(t.s).ToNTriples() + " " +
                                   dict.term(t.p).ToNTriples() + " " +
                                   dict.term(t.o).ToNTriples() + " .");
  }
  return inputs;
}

std::string InstanceWrite(uint64_t n) {
  std::string text = "INSERT DATA { " + InstanceBatch(n) + " }";
  if (n > 0) text += " ;\nDELETE DATA { " + InstanceBatch(n - 1) + " }";
  return text;
}

std::string SchemaWrite(const Inputs& inputs, uint64_t n) {
  const auto& shapes = inputs.schema_shapes;
  std::string text = "INSERT DATA { " + shapes[n % shapes.size()] + " }";
  if (n > 0) {
    text += " ;\nDELETE DATA { " + shapes[(n - 1) % shapes.size()] + " }";
  }
  return text;
}

std::vector<Selective> Fig3Pass(const Inputs& inputs) {
  std::vector<Selective> pass;
  for (const std::string& text : inputs.fig3_queries) {
    pass.push_back({text, false});
  }
  for (size_t lookup : {1, 3, 6, 8}) pass[lookup].lookup = true;
  return pass;
}

std::vector<Selective> DrawSelectivePass(const Inputs& inputs, Rng& rng) {
  const std::string type = Iri(schema::iri::kType);
  const std::string& dept = Pick(inputs.departments, rng);
  const std::string& prof = Pick(inputs.professors, rng);
  const std::string& student = Pick(inputs.students, rng);
  const std::string& member = Pick(inputs.people, rng);
  return {
      {"SELECT DISTINCT ?x WHERE { ?x " + type + " " + Iri(univ::kPerson) +
           " . ?x " + Iri(univ::kMemberOf) + " " + dept + " }",
       false},
      {"SELECT DISTINCT ?s WHERE { ?s " + Iri(univ::kAdvisor) + " " + prof +
           " . ?s " + type + " " + Iri(univ::kStudent) + " }",
       true},
      {"SELECT DISTINCT ?c WHERE { " + student + " " +
           Iri(univ::kTakesCourse) + " ?c . ?c " + type + " " +
           Iri(univ::kCourse) + " }",
       true},
      {"SELECT DISTINCT ?o WHERE { " + member + " " + Iri(univ::kMemberOf) +
           " ?o }",
       true},
      {"SELECT DISTINCT ?c WHERE { " + Pick(inputs.people, rng) + " " + type +
           " ?c }",
       true},
  };
}

}  // namespace wdr::perfbench
