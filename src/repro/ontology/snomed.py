"""Synthetic SNOMED-CT-shaped ontology (substitute substrate).

The paper runs on the real SNOMED CT, a licensed multi-gigabyte
terminology. This module builds a structurally faithful stand-in:

* a **curated clinical core** containing every concept, term and
  relationship the paper mentions -- the Figure 2 subgraph around Asthma
  (including the "26 direct subclasses of Asthma" the worked OntoScore
  example relies on), the Figure 1 CDA codes, and the drugs/disorders of
  the Table I query workload (including the acetaminophen/aspirin
  pain-control association the paper's error analysis discusses);
* a **seeded procedural expansion** that grows the ontology to an
  arbitrary size with the same shape as SNOMED: a handful of top-level
  axes, deep is-a DAGs, multi-term concepts, and typed attribute
  relationships (finding-site-of, causative-agent, ...).

Real SNOMED CT concept codes are used where they are publicly well known
(e.g. Asthma = 195967001); generated concepts use codes in the synthetic
``9xxxxxxx`` range. OntoScore computations depend only on graph structure
plus term text, both of which this substitute preserves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .model import IS_A, Concept, Ontology

#: The OID by which CDA documents reference SNOMED CT (Figure 1).
SNOMED_SYSTEM_CODE = "2.16.840.1.113883.6.96"
SNOMED_NAME = "SNOMED CT"

#: Foreign code systems the synthetic cross-references target (the OIDs
#: CDA uses for ICD-10, LOINC and RxNorm). SNOMED ships such mappings
#: as refsets; they are carried on each concept's ``xrefs``.
ICD10_SYSTEM_CODE = "2.16.840.1.113883.6.3"
LOINC_SYSTEM_CODE = "2.16.840.1.113883.6.1"
RXNORM_SYSTEM_CODE = "2.16.840.1.113883.6.88"

# Relationship types (non-taxonomic "attribute" relationships). SNOMED's
# own attribute inventory is larger; these are the kinds exercised by the
# paper plus drug-knowledge links needed by the Table I workload (a
# documented substitution: the paper's ontology related acetaminophen and
# aspirin through pain control, so associative drug links must exist).
FINDING_SITE_OF = "finding-site-of"
CAUSATIVE_AGENT = "causative-agent"
ASSOCIATED_WITH = "associated-with"
DUE_TO = "due-to"
PART_OF = "part-of"
HAS_ACTIVE_INGREDIENT = "has-active-ingredient"
MAY_TREAT = "may-treat"

RELATIONSHIP_TYPES = (
    FINDING_SITE_OF, CAUSATIVE_AGENT, ASSOCIATED_WITH, DUE_TO, PART_OF,
    HAS_ACTIVE_INGREDIENT, MAY_TREAT,
)

# ----------------------------------------------------------------------
# Well-known concept codes (public SNOMED CT identifiers where available)
# ----------------------------------------------------------------------
CLINICAL_FINDING = "404684003"
BODY_STRUCTURE = "123037004"
PHARMACEUTICAL_PRODUCT = "373873005"
SUBSTANCE = "105590001"
PROCEDURE = "71388002"
OBSERVABLE_ENTITY = "363787002"

ASTHMA = "195967001"
ASTHMA_ATTACK = "266364000"
BRONCHITIS = "32398004"
DISORDER_OF_BRONCHUS = "41427001"
DISORDER_OF_THORAX = "302292003"
FINDING_OF_REGION_OF_THORAX = "298705000"
BRONCHIAL_STRUCTURE = "955009"
REGION_OF_THORAX = "262231004"
LUNG_STRUCTURE = "39607008"
HEART_STRUCTURE = "80891009"
PERICARDIUM_STRUCTURE = "76848001"
AORTIC_STRUCTURE = "15825003"
CARDIAC_VENTRICLE = "21814001"
ATRIUM_STRUCTURE = "59652004"
MITRAL_VALVE = "91134007"
RESPIRATORY_TRACT = "20139000"

DISORDER_OF_HEART = "56265001"
CARDIAC_ARREST = "410429000"
CARDIAC_ARRHYTHMIA = "698247007"
SUPRAVENTRICULAR_ARRHYTHMIA = "44103008"
SUPRAVENTRICULAR_TACHYCARDIA = "6456007"
ATRIAL_FIBRILLATION = "49436004"
ATRIAL_FLUTTER = "5370000"
VENTRICULAR_TACHYCARDIA = "25569003"
PERICARDIAL_EFFUSION = "373945007"
COARCTATION_OF_AORTA = "7305005"
CYANOSIS = "3415004"
NEONATAL_CYANOSIS = "95563007"
VALVULAR_REGURGITATION = "20721001"
MITRAL_REGURGITATION = "48724000"
AORTIC_REGURGITATION = "60234000"
CONGENITAL_HEART_DISEASE = "13213009"
VENTRICULAR_SEPTAL_DEFECT = "30288003"
TETRALOGY_OF_FALLOT = "86299006"
PAIN_FINDING = "22253000"
FEVER = "386661006"
PNEUMONIA = "233604007"
RESPIRATORY_DISORDER = "50043002"

THEOPHYLLINE = "66493003"
ALBUTEROL = "372897005"
AMIODARONE = "372821002"
ACETAMINOPHEN = "387517004"
ASPIRIN = "387458008"
IBUPROFEN = "387207008"
CARBAPENEM = "396345004"
IMIPENEM = "46254009"
MEROPENEM = "387540000"
DIGOXIN = "387461009"
FUROSEMIDE = "387475002"
PROPRANOLOL = "372772003"
WARFARIN = "372756006"
EPINEPHRINE = "387362001"
BRONCHODILATOR = "418497006"
ANTIARRHYTHMIC_AGENT = "67507000"
ANALGESIC = "373265006"
NSAID = "372665008"
ANTIBIOTIC = "255631004"
BETA_LACTAM = "769166001"
DIURETIC = "30492008"

MEDICATIONS_CONCEPT = "410942007"

# Intermediate hierarchy layers. SNOMED taxonomies are deep (typically
# 8-15 levels); these realistic intermediates keep pairwise concept
# distances SNOMED-like, which the Graph strategy's pruning radius
# (decay 0.5, threshold 0.1 → 3 hops) depends on.
CARDIAC_FUNCTION_DISORDER = "105981003"
STRUCTURAL_HEART_DISORDER = "128599005"
PERICARDIUM_DISORDER = "118940003"
GREAT_VESSEL_ANOMALY = "445898003"
LOWER_RESPIRATORY_DISORDER = "301226008"
CARDIAC_VALVE_STRUCTURE = "17401000"
CARDIAC_CHAMBER_STRUCTURE = "276446008"
CLASS_III_ANTIARRHYTHMIC = "373247004"
NON_OPIOID_ANALGESIC = "373477003"
BODY_HEIGHT = "50373000"
BODY_WEIGHT = "27113001"
BODY_TEMPERATURE = "386725007"
HEART_RATE = "364075005"
BLOOD_PRESSURE = "75367002"
PAIN_CONTROL = "278414003"
ARRHYTHMIA_MANAGEMENT = "698074000"
AIRWAY_MANAGEMENT = "386509000"
ANTIMICROBIAL_THERAPY = "281790008"

#: (code, preferred term, synonyms, semantic tag)
_CORE_CONCEPTS: Sequence[tuple[str, str, tuple[str, ...], str]] = (
    # Top-level axes
    (CLINICAL_FINDING, "Clinical finding", ("finding",), "finding"),
    (BODY_STRUCTURE, "Body structure", (), "body structure"),
    (PHARMACEUTICAL_PRODUCT, "Pharmaceutical / biologic product",
     ("drug", "medication product"), "product"),
    (SUBSTANCE, "Substance", (), "substance"),
    (PROCEDURE, "Procedure", (), "procedure"),
    (OBSERVABLE_ENTITY, "Observable entity", (), "observable entity"),
    # Body structures (Figure 2 neighborhood + cardiac anatomy)
    (REGION_OF_THORAX, "Region of thorax", ("thorax region", "thoracic"),
     "body structure"),
    (BRONCHIAL_STRUCTURE, "Bronchial structure", ("bronchus",),
     "body structure"),
    (LUNG_STRUCTURE, "Lung structure", ("lung",), "body structure"),
    (RESPIRATORY_TRACT, "Respiratory tract structure",
     ("respiratory tract",), "body structure"),
    (HEART_STRUCTURE, "Heart structure", ("heart", "cardiac structure"),
     "body structure"),
    (PERICARDIUM_STRUCTURE, "Pericardial structure", ("pericardium",),
     "body structure"),
    (AORTIC_STRUCTURE, "Aortic structure", ("aorta",), "body structure"),
    (CARDIAC_VENTRICLE, "Cardiac ventricular structure", ("ventricle",),
     "body structure"),
    (ATRIUM_STRUCTURE, "Cardiac atrium structure", ("atrium", "atrial"),
     "body structure"),
    (MITRAL_VALVE, "Mitral valve structure", ("mitral valve",),
     "body structure"),
    # Clinical findings (Figure 2 + cardiology workload)
    (FINDING_OF_REGION_OF_THORAX, "Finding of region of thorax", (),
     "finding"),
    (CARDIAC_FUNCTION_DISORDER, "Disorder of cardiac function", (),
     "disorder"),
    (STRUCTURAL_HEART_DISORDER, "Structural disorder of heart", (),
     "disorder"),
    (PERICARDIUM_DISORDER, "Disorder of pericardium", (), "disorder"),
    (GREAT_VESSEL_ANOMALY, "Congenital anomaly of great vessel", (),
     "disorder"),
    (LOWER_RESPIRATORY_DISORDER, "Disorder of lower respiratory system",
     (), "disorder"),
    (CARDIAC_VALVE_STRUCTURE, "Cardiac valve structure", ("heart valve",),
     "body structure"),
    (CARDIAC_CHAMBER_STRUCTURE, "Cardiac chamber structure", (),
     "body structure"),
    (CLASS_III_ANTIARRHYTHMIC, "Class III antiarrhythmic agent", (),
     "product"),
    (NON_OPIOID_ANALGESIC, "Non-opioid analgesic agent", (), "product"),
    (DISORDER_OF_THORAX, "Disorder of thorax", (), "disorder"),
    (RESPIRATORY_DISORDER, "Disorder of respiratory system",
     ("respiratory disease",), "disorder"),
    (DISORDER_OF_BRONCHUS, "Disorder of bronchus", ("bronchial disorder",),
     "disorder"),
    (ASTHMA, "Asthma", ("bronchial asthma",), "disorder"),
    (ASTHMA_ATTACK, "Asthma attack", ("asthma exacerbation",), "disorder"),
    (BRONCHITIS, "Bronchitis", (), "disorder"),
    (PNEUMONIA, "Pneumonia", ("lung infection",), "disorder"),
    (DISORDER_OF_HEART, "Heart disease", ("cardiac disorder",), "disorder"),
    (CARDIAC_ARREST, "Cardiac arrest", ("cardiopulmonary arrest",),
     "disorder"),
    (CARDIAC_ARRHYTHMIA, "Cardiac arrhythmia", ("heart rhythm disorder",),
     "disorder"),
    (SUPRAVENTRICULAR_ARRHYTHMIA, "Supraventricular arrhythmia", (),
     "disorder"),
    (SUPRAVENTRICULAR_TACHYCARDIA, "Supraventricular tachycardia",
     ("SVT",), "disorder"),
    (ATRIAL_FIBRILLATION, "Atrial fibrillation", (), "disorder"),
    (ATRIAL_FLUTTER, "Atrial flutter", (), "disorder"),
    (VENTRICULAR_TACHYCARDIA, "Ventricular tachycardia", (), "disorder"),
    (PERICARDIAL_EFFUSION, "Pericardial effusion", (), "disorder"),
    (COARCTATION_OF_AORTA, "Coarctation of aorta",
     ("aortic coarctation", "coarctation"), "disorder"),
    (CYANOSIS, "Cyanosis", ("cyanotic",), "finding"),
    (NEONATAL_CYANOSIS, "Neonatal cyanosis", ("cyanosis neonatal",),
     "disorder"),
    (VALVULAR_REGURGITATION, "Valvular regurgitation",
     ("regurgitant flow", "valve regurgitation"), "disorder"),
    (MITRAL_REGURGITATION, "Mitral valve regurgitation",
     ("mitral regurgitation",), "disorder"),
    (AORTIC_REGURGITATION, "Aortic valve regurgitation",
     ("aortic regurgitation",), "disorder"),
    (CONGENITAL_HEART_DISEASE, "Congenital heart disease",
     ("congenital cardiac anomaly",), "disorder"),
    (VENTRICULAR_SEPTAL_DEFECT, "Ventricular septal defect", ("VSD",),
     "disorder"),
    (TETRALOGY_OF_FALLOT, "Tetralogy of Fallot", (), "disorder"),
    (PAIN_FINDING, "Pain", (), "finding"),
    (FEVER, "Fever", ("pyrexia", "febrile"), "finding"),
    # Products / substances
    (MEDICATIONS_CONCEPT, "Medications", ("drug or medicament",),
     "substance"),
    (BRONCHODILATOR, "Bronchodilator agent", ("bronchodilator",),
     "product"),
    (ANTIARRHYTHMIC_AGENT, "Antiarrhythmic agent", ("antiarrhythmic",),
     "product"),
    (ANALGESIC, "Analgesic agent", ("analgesic", "pain reliever"),
     "product"),
    (NSAID, "Non-steroidal anti-inflammatory agent", ("NSAID",),
     "product"),
    (ANTIBIOTIC, "Antibiotic agent", ("antibacterial",), "product"),
    (BETA_LACTAM, "Beta-lactam antibacterial agent", ("beta lactam",),
     "product"),
    (DIURETIC, "Diuretic agent", ("diuretic",), "product"),
    (THEOPHYLLINE, "Theophylline", (), "product"),
    (ALBUTEROL, "Albuterol", ("salbutamol",), "product"),
    (AMIODARONE, "Amiodarone", (), "product"),
    (ACETAMINOPHEN, "Acetaminophen", ("paracetamol",), "product"),
    (ASPIRIN, "Aspirin", ("acetylsalicylic acid",), "product"),
    (IBUPROFEN, "Ibuprofen", (), "product"),
    (CARBAPENEM, "Carbapenem", (), "product"),
    (IMIPENEM, "Imipenem", (), "product"),
    (MEROPENEM, "Meropenem", (), "product"),
    (DIGOXIN, "Digoxin", (), "product"),
    (FUROSEMIDE, "Furosemide", (), "product"),
    (PROPRANOLOL, "Propranolol", (), "product"),
    (WARFARIN, "Warfarin", (), "product"),
    (EPINEPHRINE, "Epinephrine", ("adrenaline",), "product"),
    # Observables / procedures referenced by CDA vitals sections
    (BODY_HEIGHT, "Body height", ("height",), "observable entity"),
    (BODY_WEIGHT, "Body weight", ("weight",), "observable entity"),
    (BODY_TEMPERATURE, "Body temperature", ("temperature",),
     "observable entity"),
    (HEART_RATE, "Heart rate", ("pulse rate", "pulse"),
     "observable entity"),
    (BLOOD_PRESSURE, "Blood pressure", (), "observable entity"),
    (PAIN_CONTROL, "Pain control", ("pain management",), "procedure"),
    (ARRHYTHMIA_MANAGEMENT, "Arrhythmia management", (), "procedure"),
    (AIRWAY_MANAGEMENT, "Airway management", (), "procedure"),
    (ANTIMICROBIAL_THERAPY, "Antimicrobial therapy", (), "procedure"),
)

#: (child, parent) is-a edges of the curated core.
_CORE_IS_A: Sequence[tuple[str, str]] = (
    # Body structure hierarchy (Figure 2 right-hand side)
    (REGION_OF_THORAX, BODY_STRUCTURE),
    (RESPIRATORY_TRACT, BODY_STRUCTURE),
    (LUNG_STRUCTURE, REGION_OF_THORAX),
    (LUNG_STRUCTURE, RESPIRATORY_TRACT),
    (BRONCHIAL_STRUCTURE, REGION_OF_THORAX),
    (BRONCHIAL_STRUCTURE, RESPIRATORY_TRACT),
    (HEART_STRUCTURE, REGION_OF_THORAX),
    (PERICARDIUM_STRUCTURE, HEART_STRUCTURE),
    (AORTIC_STRUCTURE, BODY_STRUCTURE),
    (CARDIAC_VALVE_STRUCTURE, HEART_STRUCTURE),
    (CARDIAC_CHAMBER_STRUCTURE, HEART_STRUCTURE),
    (CARDIAC_VENTRICLE, CARDIAC_CHAMBER_STRUCTURE),
    (ATRIUM_STRUCTURE, CARDIAC_CHAMBER_STRUCTURE),
    (MITRAL_VALVE, CARDIAC_VALVE_STRUCTURE),
    # Finding hierarchy (Figure 2 left-hand side)
    (FINDING_OF_REGION_OF_THORAX, CLINICAL_FINDING),
    (DISORDER_OF_THORAX, FINDING_OF_REGION_OF_THORAX),
    (RESPIRATORY_DISORDER, CLINICAL_FINDING),
    (LOWER_RESPIRATORY_DISORDER, RESPIRATORY_DISORDER),
    (DISORDER_OF_BRONCHUS, DISORDER_OF_THORAX),
    (DISORDER_OF_BRONCHUS, LOWER_RESPIRATORY_DISORDER),
    (ASTHMA, DISORDER_OF_BRONCHUS),
    (ASTHMA_ATTACK, ASTHMA),
    (BRONCHITIS, DISORDER_OF_BRONCHUS),
    (PNEUMONIA, LOWER_RESPIRATORY_DISORDER),
    (DISORDER_OF_HEART, DISORDER_OF_THORAX),
    (CARDIAC_FUNCTION_DISORDER, DISORDER_OF_HEART),
    (STRUCTURAL_HEART_DISORDER, DISORDER_OF_HEART),
    (PERICARDIUM_DISORDER, STRUCTURAL_HEART_DISORDER),
    (CARDIAC_ARREST, CARDIAC_FUNCTION_DISORDER),
    (CARDIAC_ARRHYTHMIA, CARDIAC_FUNCTION_DISORDER),
    (SUPRAVENTRICULAR_ARRHYTHMIA, CARDIAC_ARRHYTHMIA),
    (SUPRAVENTRICULAR_TACHYCARDIA, SUPRAVENTRICULAR_ARRHYTHMIA),
    (ATRIAL_FIBRILLATION, SUPRAVENTRICULAR_ARRHYTHMIA),
    (ATRIAL_FLUTTER, SUPRAVENTRICULAR_ARRHYTHMIA),
    (VENTRICULAR_TACHYCARDIA, CARDIAC_ARRHYTHMIA),
    (PERICARDIAL_EFFUSION, PERICARDIUM_DISORDER),
    (GREAT_VESSEL_ANOMALY, CONGENITAL_HEART_DISEASE),
    (COARCTATION_OF_AORTA, GREAT_VESSEL_ANOMALY),
    (CYANOSIS, CLINICAL_FINDING),
    (NEONATAL_CYANOSIS, CYANOSIS),
    (VALVULAR_REGURGITATION, STRUCTURAL_HEART_DISORDER),
    (MITRAL_REGURGITATION, VALVULAR_REGURGITATION),
    (AORTIC_REGURGITATION, VALVULAR_REGURGITATION),
    (CONGENITAL_HEART_DISEASE, STRUCTURAL_HEART_DISORDER),
    (VENTRICULAR_SEPTAL_DEFECT, CONGENITAL_HEART_DISEASE),
    (TETRALOGY_OF_FALLOT, CONGENITAL_HEART_DISEASE),
    (PAIN_FINDING, CLINICAL_FINDING),
    (FEVER, CLINICAL_FINDING),
    # Product hierarchy
    (MEDICATIONS_CONCEPT, SUBSTANCE),
    (BRONCHODILATOR, PHARMACEUTICAL_PRODUCT),
    (ANTIARRHYTHMIC_AGENT, PHARMACEUTICAL_PRODUCT),
    (ANALGESIC, PHARMACEUTICAL_PRODUCT),
    (NSAID, ANALGESIC),
    (ANTIBIOTIC, PHARMACEUTICAL_PRODUCT),
    (BETA_LACTAM, ANTIBIOTIC),
    (DIURETIC, PHARMACEUTICAL_PRODUCT),
    (THEOPHYLLINE, BRONCHODILATOR),
    (ALBUTEROL, BRONCHODILATOR),
    (CLASS_III_ANTIARRHYTHMIC, ANTIARRHYTHMIC_AGENT),
    (AMIODARONE, CLASS_III_ANTIARRHYTHMIC),
    (PROPRANOLOL, ANTIARRHYTHMIC_AGENT),
    (NON_OPIOID_ANALGESIC, ANALGESIC),
    (ACETAMINOPHEN, NON_OPIOID_ANALGESIC),
    (ASPIRIN, NSAID),
    (IBUPROFEN, NSAID),
    (CARBAPENEM, BETA_LACTAM),
    (IMIPENEM, CARBAPENEM),
    (MEROPENEM, CARBAPENEM),
    (DIGOXIN, ANTIARRHYTHMIC_AGENT),
    (FUROSEMIDE, DIURETIC),
    (WARFARIN, PHARMACEUTICAL_PRODUCT),
    (EPINEPHRINE, PHARMACEUTICAL_PRODUCT),
    # Observables / procedures
    (BODY_HEIGHT, OBSERVABLE_ENTITY),
    (BODY_WEIGHT, OBSERVABLE_ENTITY),
    (BODY_TEMPERATURE, OBSERVABLE_ENTITY),
    (HEART_RATE, OBSERVABLE_ENTITY),
    (BLOOD_PRESSURE, OBSERVABLE_ENTITY),
    (PAIN_CONTROL, PROCEDURE),
    (ARRHYTHMIA_MANAGEMENT, PROCEDURE),
    (AIRWAY_MANAGEMENT, PROCEDURE),
    (ANTIMICROBIAL_THERAPY, PROCEDURE),
)

#: (source, type, destination) attribute relationships of the core.
_CORE_ATTRIBUTES: Sequence[tuple[str, str, str]] = (
    # Figure 2: "SNOMED defines a finding-site-of relationship between
    # Asthma and Bronchial Structure".
    (ASTHMA, FINDING_SITE_OF, BRONCHIAL_STRUCTURE),
    (ASTHMA_ATTACK, FINDING_SITE_OF, BRONCHIAL_STRUCTURE),
    (BRONCHITIS, FINDING_SITE_OF, BRONCHIAL_STRUCTURE),
    (DISORDER_OF_BRONCHUS, FINDING_SITE_OF, BRONCHIAL_STRUCTURE),
    (DISORDER_OF_THORAX, FINDING_SITE_OF, REGION_OF_THORAX),
    (FINDING_OF_REGION_OF_THORAX, FINDING_SITE_OF, REGION_OF_THORAX),
    (PNEUMONIA, FINDING_SITE_OF, LUNG_STRUCTURE),
    (DISORDER_OF_HEART, FINDING_SITE_OF, HEART_STRUCTURE),
    (CARDIAC_ARREST, FINDING_SITE_OF, HEART_STRUCTURE),
    (CARDIAC_ARRHYTHMIA, FINDING_SITE_OF, HEART_STRUCTURE),
    (SUPRAVENTRICULAR_ARRHYTHMIA, FINDING_SITE_OF, ATRIUM_STRUCTURE),
    (SUPRAVENTRICULAR_TACHYCARDIA, FINDING_SITE_OF, ATRIUM_STRUCTURE),
    (ATRIAL_FIBRILLATION, FINDING_SITE_OF, ATRIUM_STRUCTURE),
    (ATRIAL_FLUTTER, FINDING_SITE_OF, ATRIUM_STRUCTURE),
    (VENTRICULAR_TACHYCARDIA, FINDING_SITE_OF, CARDIAC_VENTRICLE),
    (PERICARDIAL_EFFUSION, FINDING_SITE_OF, PERICARDIUM_STRUCTURE),
    (COARCTATION_OF_AORTA, FINDING_SITE_OF, AORTIC_STRUCTURE),
    (VALVULAR_REGURGITATION, FINDING_SITE_OF, HEART_STRUCTURE),
    (MITRAL_REGURGITATION, FINDING_SITE_OF, MITRAL_VALVE),
    (AORTIC_REGURGITATION, FINDING_SITE_OF, AORTIC_STRUCTURE),
    (VENTRICULAR_SEPTAL_DEFECT, FINDING_SITE_OF, CARDIAC_VENTRICLE),
    (TETRALOGY_OF_FALLOT, FINDING_SITE_OF, HEART_STRUCTURE),
    (NEONATAL_CYANOSIS, DUE_TO, CONGENITAL_HEART_DISEASE),
    (CYANOSIS, ASSOCIATED_WITH, CONGENITAL_HEART_DISEASE),
    (ASTHMA_ATTACK, DUE_TO, ASTHMA),
    (CARDIAC_ARREST, DUE_TO, VENTRICULAR_TACHYCARDIA),
    (TETRALOGY_OF_FALLOT, ASSOCIATED_WITH, CYANOSIS),
    # Anatomy part-of links
    (BRONCHIAL_STRUCTURE, PART_OF, LUNG_STRUCTURE),
    (LUNG_STRUCTURE, PART_OF, REGION_OF_THORAX),
    (HEART_STRUCTURE, PART_OF, REGION_OF_THORAX),
    (PERICARDIUM_STRUCTURE, PART_OF, HEART_STRUCTURE),
    (CARDIAC_VENTRICLE, PART_OF, HEART_STRUCTURE),
    (ATRIUM_STRUCTURE, PART_OF, HEART_STRUCTURE),
    (MITRAL_VALVE, PART_OF, HEART_STRUCTURE),
    # Drug context links. SNOMED CT proper has no drug->disorder
    # treatment relations; what the paper's UMLS-backed ontology exposed
    # were *context* associations -- its error analysis maps
    # acetaminophen to aspirin "in the context of pain control". We model
    # exactly that: drugs of one therapeutic class share an association
    # with a therapy-context procedure, so sibling drugs are reachable
    # through the shared restriction (and nothing links drugs to the
    # disorders they treat).
    (ACETAMINOPHEN, ASSOCIATED_WITH, PAIN_CONTROL),
    (ASPIRIN, ASSOCIATED_WITH, PAIN_CONTROL),
    (IBUPROFEN, ASSOCIATED_WITH, PAIN_CONTROL),
    (AMIODARONE, ASSOCIATED_WITH, ARRHYTHMIA_MANAGEMENT),
    (PROPRANOLOL, ASSOCIATED_WITH, ARRHYTHMIA_MANAGEMENT),
    (DIGOXIN, ASSOCIATED_WITH, ARRHYTHMIA_MANAGEMENT),
    (THEOPHYLLINE, ASSOCIATED_WITH, AIRWAY_MANAGEMENT),
    (ALBUTEROL, ASSOCIATED_WITH, AIRWAY_MANAGEMENT),
    (CARBAPENEM, ASSOCIATED_WITH, ANTIMICROBIAL_THERAPY),
    (IMIPENEM, ASSOCIATED_WITH, ANTIMICROBIAL_THERAPY),
    (MEROPENEM, ASSOCIATED_WITH, ANTIMICROBIAL_THERAPY),
)

#: Named asthma subtypes; the generator pads these to exactly 26 direct
#: subclasses so the paper's worked example ("the concept Asthma has 26
#: direct subclasses, hence the 1/26 factor") can be asserted in tests.
_ASTHMA_SUBTYPES: Sequence[str] = (
    "Allergic asthma", "Exercise-induced asthma", "Occupational asthma",
    "Childhood asthma", "Status asthmaticus", "Intrinsic asthma",
    "Extrinsic asthma", "Late-onset asthma", "Cough variant asthma",
    "Drug-induced asthma", "Severe persistent asthma",
    "Mild intermittent asthma", "Moderate persistent asthma",
    "Seasonal asthma", "Nocturnal asthma", "Brittle asthma",
    "Aspirin-sensitive asthma", "Steroid-dependent asthma",
)

_ASTHMA_DIRECT_SUBCLASSES = 26  # Asthma attack + subtypes + padding

#: Curated cross-references of the core (well-known public mappings).
_CORE_XREFS: dict[str, tuple[tuple[str, str], ...]] = {
    ASTHMA: ((ICD10_SYSTEM_CODE, "J45"),),
    BRONCHITIS: ((ICD10_SYSTEM_CODE, "J40"),),
    PNEUMONIA: ((ICD10_SYSTEM_CODE, "J18"),),
    ATRIAL_FIBRILLATION: ((ICD10_SYSTEM_CODE, "I48"),),
    ATRIAL_FLUTTER: ((ICD10_SYSTEM_CODE, "I48"),),
    CARDIAC_ARREST: ((ICD10_SYSTEM_CODE, "I46"),),
    FEVER: ((ICD10_SYSTEM_CODE, "R50"),),
    BODY_HEIGHT: ((LOINC_SYSTEM_CODE, "8302-2"),),
    BODY_WEIGHT: ((LOINC_SYSTEM_CODE, "29463-7"),),
    BODY_TEMPERATURE: ((LOINC_SYSTEM_CODE, "8310-5"),),
    HEART_RATE: ((LOINC_SYSTEM_CODE, "8867-4"),),
    BLOOD_PRESSURE: ((LOINC_SYSTEM_CODE, "85354-9"),),
    ACETAMINOPHEN: ((RXNORM_SYSTEM_CODE, "161"),),
    ASPIRIN: ((RXNORM_SYSTEM_CODE, "1191"),),
    IBUPROFEN: ((RXNORM_SYSTEM_CODE, "5640"),),
}


@dataclass(frozen=True)
class ConceptEntry:
    """One streamed generator row: a concept plus its outgoing edges.

    ``parents`` are is-a destinations, ``attributes`` are ``(type,
    destination)`` pairs leaving the concept, and ``incoming`` are
    ``(source, type)`` pairs pointing *into* it (a later stage may hang
    an edge off an earlier concept -- causative-agent points
    disorder -> organism). Edges may reference concepts that appear
    *later* in the stream (the curated core is a graph, not a tree), so
    stream consumers buffer edges until the concept pass completes.
    """

    concept: Concept
    parents: tuple[str, ...] = ()
    attributes: tuple[tuple[str, str], ...] = ()
    incoming: tuple[tuple[str, str], ...] = ()


def _core_entries() -> Iterator[ConceptEntry]:
    """The curated core as a stream of :class:`ConceptEntry` rows."""
    parents_of: dict[str, list[str]] = {}
    attributes_of: dict[str, list[tuple[str, str]]] = {}
    for child, parent in _CORE_IS_A:
        parents_of.setdefault(child, []).append(parent)
    for source, type, destination in _CORE_ATTRIBUTES:
        attributes_of.setdefault(source, []).append((type, destination))
    for code, term, synonyms, tag in _CORE_CONCEPTS:
        yield ConceptEntry(
            Concept(code, term, synonyms, tag,
                    _CORE_XREFS.get(code, ())),
            tuple(parents_of.get(code, ())),
            tuple(attributes_of.get(code, ())))
    # Pad Asthma to exactly 26 direct subclasses (paper Section IV-B).
    code_counter = 910000000
    for name in _ASTHMA_SUBTYPES:
        code = str(code_counter)
        code_counter += 1
        yield ConceptEntry(Concept(code, name, (), "disorder"),
                           (ASTHMA,),
                           ((FINDING_SITE_OF, BRONCHIAL_STRUCTURE),))
    existing = 1 + len(_ASTHMA_SUBTYPES)  # Asthma attack + named subtypes
    for index in range(_ASTHMA_DIRECT_SUBCLASSES - existing):
        code = str(code_counter)
        code_counter += 1
        yield ConceptEntry(
            Concept(code, f"Asthma variant type {index + 1}", (),
                    "disorder"),
            (ASTHMA,))


def materialize(entries: Iterator[ConceptEntry] | Sequence[ConceptEntry],
                validate: bool = True) -> Ontology:
    """Build an :class:`Ontology` from a stream of entries.

    Concepts land as they arrive; edges are buffered until the stream
    ends because they may point forward. Cycle checking is deferred to
    the single final :meth:`~Ontology.validate` toposort -- the
    incremental ancestor-walk check is quadratic over a bulk load.
    """
    ontology = Ontology(SNOMED_SYSTEM_CODE, SNOMED_NAME)
    edges: list[tuple[str, str, str]] = []
    for entry in entries:
        ontology.add_concept(entry.concept)
        source = entry.concept.code
        for parent in entry.parents:
            edges.append((source, IS_A, parent))
        for type, destination in entry.attributes:
            edges.append((source, type, destination))
        for origin, type in entry.incoming:
            edges.append((origin, type, source))
    for source, type, destination in edges:
        ontology.add_relationship(source, type, destination,
                                  check_cycles=False)
    if validate:
        ontology.validate()
    return ontology


def build_core_ontology() -> Ontology:
    """The curated clinical core: every concept the paper exercises."""
    return materialize(_core_entries())


# ----------------------------------------------------------------------
# Procedural expansion
# ----------------------------------------------------------------------
_ANATOMY_WORDS = (
    "valve", "septum", "artery", "vein", "chamber", "wall", "muscle",
    "node", "vessel", "outflow tract", "apex", "base", "membrane",
    "root", "arch", "trunk", "branch", "lobe", "segment", "duct",
)

_MORPHOLOGY_WORDS = (
    "stenosis", "dilatation", "hypertrophy", "inflammation", "defect",
    "obstruction", "insufficiency", "prolapse", "thrombosis", "ischemia",
    "atresia", "aneurysm", "fibrosis", "hypoplasia", "malformation",
    "rupture", "calcification", "degeneration", "edema", "infarction",
)

_SEVERITY_WORDS = ("acute", "chronic", "congenital", "acquired", "severe",
                   "mild", "recurrent", "transient", "progressive",
                   "idiopathic")

_DRUG_STEMS = ("card", "vent", "thora", "pulmo", "bronch", "angi", "vaso",
               "cor", "myo", "peri", "hemo", "oxy", "nitro", "beta")

_DRUG_SUFFIXES = ("olol", "arone", "azine", "icillin", "oxacin", "amide",
                  "idine", "april", "artan", "statin", "azole", "mycin",
                  "ipine", "osin")

#: Therapy-context association per drug class (generator).
_CLASS_CONTEXTS = {
    ANTIARRHYTHMIC_AGENT: ARRHYTHMIA_MANAGEMENT,
    BRONCHODILATOR: AIRWAY_MANAGEMENT,
    ANALGESIC: PAIN_CONTROL,
    ANTIBIOTIC: ANTIMICROBIAL_THERAPY,
}

_ORGANISM_WORDS = ("Streptococcus", "Staphylococcus", "Haemophilus",
                   "Mycoplasma", "Klebsiella", "Pseudomonas", "Candida",
                   "Enterococcus", "Moraxella", "Legionella")


#: Generated-concept budget at ``scale=1.0`` (groupers included).
_BASE_GENERATED = 355

#: Stage shares of the generated budget after the fixed groupers.
_ANATOMY_SHARE = 0.20
_DISORDER_SHARE = 0.50
_DRUG_SHARE = 0.25


class SyntheticSnomedBuilder:
    """Deterministic procedural expansion of the curated core.

    ``scale`` multiplies the generated-concept budget (``1.0`` yields
    ~500 concepts including the core); ``target_concepts`` sets an
    absolute total instead, sized for the 10^5-10^6 decade sweeps. The
    shape (fan-outs, DAG depth, synonym/xref density, attribute-edge
    density) follows SNOMED's at every size.

    :meth:`stream` yields :class:`ConceptEntry` rows one at a time
    without materializing a graph -- consumers that only need one pass
    (the content fingerprint) stay O(1)-ish in memory; :meth:`build`
    materializes an
    :class:`Ontology` from the same stream.

    All randomness flows from one ``random.Random(seed)`` instance
    threaded through every generation stage in a fixed order, so equal
    seeds give byte-identical ontologies (a regression test serializes
    two builds and compares bytes).
    """

    def __init__(self, scale: float = 1.0, seed: int = 20090331,
                 target_concepts: int | None = None) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        if target_concepts is not None and target_concepts < 1:
            raise ValueError("target_concepts must be positive")
        self.scale = scale
        self.seed = seed
        self.target_concepts = target_concepts
        self._next_code = 920000000

    # ------------------------------------------------------------------
    def build(self) -> Ontology:
        """Materialize the streamed expansion as an :class:`Ontology`."""
        return materialize(self.stream())

    def stream(self) -> Iterator[ConceptEntry]:
        """All concepts (core first, then generated), one entry each."""
        self._next_code = 920000000
        rng = random.Random(self.seed)
        core_count = 0
        for entry in _core_entries():
            core_count += 1
            yield entry
        budget = self._generated_budget(core_count)
        sites: list[tuple[str, str]] = [
            (HEART_STRUCTURE, "heart structure"),
            (LUNG_STRUCTURE, "lung structure"),
            (BRONCHIAL_STRUCTURE, "bronchial structure"),
            (AORTIC_STRUCTURE, "aortic structure"),
            (CARDIAC_VENTRICLE, "cardiac ventricular structure"),
            (ATRIUM_STRUCTURE, "cardiac atrium structure"),
            (REGION_OF_THORAX, "region of thorax")]
        disorders: list[str] = []
        groupers = min(budget, 43)
        remaining = budget - groupers
        anatomy_count = int(remaining * _ANATOMY_SHARE)
        disorder_count = int(remaining * _DISORDER_SHARE)
        drug_count = int(remaining * _DRUG_SHARE)
        organism_count = remaining - anatomy_count - disorder_count \
            - drug_count
        yield from self._generate_top_level_groupers(rng, groupers)
        yield from self._generate_anatomy(rng, anatomy_count, sites)
        yield from self._generate_disorders(rng, disorder_count, sites,
                                            disorders)
        yield from self._generate_drugs(rng, drug_count)
        yield from self._generate_organisms(rng, organism_count, disorders)

    def _generated_budget(self, core_count: int) -> int:
        if self.target_concepts is not None:
            return max(0, self.target_concepts - core_count)
        return int(_BASE_GENERATED * self.scale)

    def _fresh_code(self) -> str:
        code = str(self._next_code)
        self._next_code += 1
        return code

    # ------------------------------------------------------------------
    def _generate_top_level_groupers(self, rng: random.Random,
                                     budget: int,
                                     ) -> Iterator[ConceptEntry]:
        """High-level grouper concepts under each top axis.

        SNOMED's top concepts have dozens of direct children ("Clinical
        finding" alone has ~30). The fan-out matters beyond realism:
        the Taxonomy/Relationships upward flow divides by the target's
        direct-subclass count, so thin top levels would let authority
        spill across whole axes (see DESIGN.md).
        """
        systems = ("digestive", "nervous", "musculoskeletal", "endocrine",
                   "immune", "urinary", "integumentary", "hematologic",
                   "hepatic", "ocular", "auditory", "metabolic",
                   "lymphatic", "renal", "vascular", "gastrointestinal",
                   "neurologic", "dermatologic", "obstetric", "psychiatric")
        entries: list[ConceptEntry] = []
        for system in systems:
            entries.append(ConceptEntry(
                Concept(self._fresh_code(),
                        f"Disorder of {system} system", (), "disorder"),
                (CLINICAL_FINDING,)))
        for system in systems[:12]:
            entries.append(ConceptEntry(
                Concept(self._fresh_code(),
                        f"Structure of {system} system", (),
                        "body structure"),
                (BODY_STRUCTURE,)))
        for index in range(10):
            entries.append(ConceptEntry(
                Concept(self._fresh_code(),
                        f"Agent class {chr(ord('A') + index)}", (),
                        "product"),
                (PHARMACEUTICAL_PRODUCT,)))
        yield from entries[:budget]

    def _generate_anatomy(self, rng: random.Random, count: int,
                          sites: list[tuple[str, str]],
                          ) -> Iterator[ConceptEntry]:
        """Grow the body-structure axis; appends onto ``sites``."""
        organs = ("cardiac", "pulmonary", "bronchial", "aortic",
                  "ventricular", "atrial", "thoracic")
        for _ in range(count):
            parent_index = rng.randrange(len(sites))
            parent, _parent_term = sites[parent_index]
            organ = organs[parent_index % len(organs)]
            part = rng.choice(_ANATOMY_WORDS)
            qualifier = rng.choice(("left", "right", "anterior",
                                    "posterior", "superior", "inferior"))
            code = self._fresh_code()
            phrase = f"{qualifier} {organ} {part}"
            sites.append((code, phrase))  # allow deeper nesting
            yield ConceptEntry(
                Concept(code, f"Structure of {phrase}", (phrase,),
                        "body structure"),
                (parent,),
                ((PART_OF, parent),))

    def _generate_disorders(self, rng: random.Random, count: int,
                            sites: list[tuple[str, str]],
                            generated: list[str],
                            ) -> Iterator[ConceptEntry]:
        """Grow the clinical-finding axis; appends onto ``generated``."""
        # Intermediate taxonomy nodes receive most generated children so
        # their is-a fan-outs approach SNOMED's (tens of subclasses per
        # grouping concept); the fan-out is what gives the upward 1/N
        # authority split its bite.
        parents = [DISORDER_OF_HEART, CARDIAC_ARRHYTHMIA,
                   CONGENITAL_HEART_DISEASE, RESPIRATORY_DISORDER,
                   DISORDER_OF_THORAX, VALVULAR_REGURGITATION,
                   CARDIAC_FUNCTION_DISORDER, STRUCTURAL_HEART_DISORDER,
                   PERICARDIUM_DISORDER, GREAT_VESSEL_ANOMALY,
                   LOWER_RESPIRATORY_DISORDER]
        associated: set[tuple[str, str]] = set()
        base = len(parents)
        for index in range(count):
            # The first few passes round-robin the curated intermediates
            # so each is guaranteed a SNOMED-like fan-out (>= 5 direct
            # subclasses) before random assignment takes over.
            if index < base * 5:
                parent = parents[index % base]
            else:
                parent = rng.choice(parents)
            site, site_term = rng.choice(sites)
            site_words = site_term.removeprefix("Structure of ")
            morphology = rng.choice(_MORPHOLOGY_WORDS)
            severity = rng.choice(_SEVERITY_WORDS)
            code = self._fresh_code()
            term = f"{severity.capitalize()} {morphology} of {site_words}"
            synonyms = [f"{site_words} {morphology}"]
            if rng.random() < 0.15:
                # an acronym synonym, as SNOMED carries for many findings
                initials = "".join(word[0] for word in term.split()
                                   if word[0].isalpha()).upper()
                synonyms.append(initials)
            xrefs: tuple[tuple[str, str], ...] = ()
            if rng.random() < 0.6:
                icd = (f"{rng.choice('IJKQR')}{rng.randrange(10, 100)}"
                       f".{rng.randrange(0, 10)}")
                xrefs = ((ICD10_SYSTEM_CODE, icd),)
            attributes: list[tuple[str, str]] = [(FINDING_SITE_OF, site)]
            if rng.random() < 0.25 and generated:
                other = rng.choice(generated)
                if other != code and (code, other) not in associated:
                    associated.add((code, other))
                    attributes.append((ASSOCIATED_WITH, other))
            generated.append(code)
            entry_parents: tuple[str, ...] = (parent,)
            yield ConceptEntry(
                Concept(code, term, tuple(synonyms), "disorder", xrefs),
                entry_parents, tuple(attributes))
            if rng.random() < 0.3:
                parents.append(code)

    def _generate_drugs(self, rng: random.Random, count: int,
                        ) -> Iterator[ConceptEntry]:
        """Grow the pharmaceutical axis."""
        classes = [ANTIARRHYTHMIC_AGENT, BRONCHODILATOR, ANALGESIC,
                   ANTIBIOTIC, DIURETIC, PHARMACEUTICAL_PRODUCT]
        seen_names: dict[str, int] = {}
        for _ in range(count):
            stem = rng.choice(_DRUG_STEMS)
            suffix = rng.choice(_DRUG_SUFFIXES)
            name = (stem + suffix).capitalize()
            repeat = seen_names.get(name, 0)
            seen_names[name] = repeat + 1
            if repeat:
                name = f"{name} {repeat + 1}"
            code = self._fresh_code()
            synonyms: tuple[str, ...] = ()
            if rng.random() < 0.3:
                synonyms = (f"{name} hydrochloride",)
            xrefs = ()
            if rng.random() < 0.5:
                xrefs = ((RXNORM_SYSTEM_CODE,
                          str(rng.randrange(10000, 999999))),)
            drug_class = rng.choice(classes)
            attributes = []
            context = _CLASS_CONTEXTS.get(drug_class)
            if context is not None:
                attributes.append((ASSOCIATED_WITH, context))
            yield ConceptEntry(
                Concept(code, name, synonyms, "product", xrefs),
                (drug_class,), tuple(attributes))

    def _generate_organisms(self, rng: random.Random, count: int,
                            disorders: list[str],
                            ) -> Iterator[ConceptEntry]:
        """An organism axis feeding causative-agent links."""
        root = self._fresh_code()
        yield ConceptEntry(Concept(root, "Organism", (), "organism"))
        species = ("pneumoniae", "aureus", "influenzae", "pyogenes",
                   "faecalis", "aeruginosa", "albicans")
        count = max(4, count - 1)
        seen_names: dict[str, int] = {}
        caused: set[tuple[str, str]] = set()
        for _ in range(count):
            genus = rng.choice(_ORGANISM_WORDS)
            name = f"{genus} {rng.choice(species)}"
            repeat = seen_names.get(name, 0)
            seen_names[name] = repeat + 1
            if repeat:
                name = f"{name} strain {repeat + 1}"
            code = self._fresh_code()
            incoming: tuple[tuple[str, str], ...] = ()
            if disorders and rng.random() < 0.7:
                disorder = rng.choice(disorders)
                if (disorder, code) not in caused:
                    caused.add((disorder, code))
                    incoming = ((disorder, CAUSATIVE_AGENT),)
            yield ConceptEntry(Concept(code, name, (), "organism"),
                               (root,), incoming=incoming)


def build_synthetic_snomed(scale: float = 1.0, seed: int = 20090331,
                           target_concepts: int | None = None) -> Ontology:
    """Build the full synthetic SNOMED: curated core + expansion."""
    return SyntheticSnomedBuilder(scale=scale, seed=seed,
                                  target_concepts=target_concepts).build()
